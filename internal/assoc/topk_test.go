package assoc

import (
	"math"
	"sort"
	"testing"

	"sparkscore/internal/rng"
)

func randomPairs(seed uint64, n int) []PairResult {
	r := rng.New(seed)
	out := make([]PairResult, n)
	for i := range out {
		out[i] = PairResult{
			SNP:    int32(i / 7),
			Pheno:  int32(i % 7),
			PValue: r.Float64(),
		}
	}
	return out
}

func TestTopKEqualsSortedPrefix(t *testing.T) {
	pairs := randomPairs(3, 500)
	for _, k := range []int{0, 1, 10, 499, 500, 1000} {
		tk := newTopK(k)
		for _, p := range pairs {
			tk.add(p)
		}
		want := append([]PairResult(nil), pairs...)
		sort.Slice(want, func(i, j int) bool { return pairLess(want[i], want[j]) })
		if k < len(want) {
			want = want[:k]
		}
		got := tk.sorted()
		if len(got) != len(want) {
			t.Fatalf("k=%d: kept %d pairs, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: pair %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestTopKTieHandling pins the tie rule: equal p-values order by SNP then
// phenotype, so the kept set at a tie boundary is deterministic.
func TestTopKTieHandling(t *testing.T) {
	pairs := []PairResult{
		{SNP: 5, Pheno: 1, PValue: 0.5},
		{SNP: 2, Pheno: 3, PValue: 0.5},
		{SNP: 2, Pheno: 1, PValue: 0.5},
		{SNP: 9, Pheno: 0, PValue: 0.1},
	}
	// Feed in every rotation; the top-3 must always be the same.
	for rot := range pairs {
		tk := newTopK(3)
		for i := range pairs {
			tk.add(pairs[(i+rot)%len(pairs)])
		}
		got := tk.sorted()
		want := []PairResult{
			{SNP: 9, Pheno: 0, PValue: 0.1},
			{SNP: 2, Pheno: 1, PValue: 0.5},
			{SNP: 2, Pheno: 3, PValue: 0.5},
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rotation %d: pair %d = %+v, want %+v", rot, i, got[i], want[i])
			}
		}
	}
}

func TestHistAddEdges(t *testing.T) {
	h := make([]int64, 4)
	histAdd(h, 0)    // bin 0
	histAdd(h, 0.24) // bin 0
	histAdd(h, 0.25) // bin 1 (0.25*4 = 1)
	histAdd(h, 0.99) // bin 3
	histAdd(h, 1)    // clamped to bin 3
	want := []int64{2, 1, 0, 2}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hist = %v, want %v", h, want)
		}
	}
}

// snap mirrors histAdd's binning: the bin's upper edge.
func snap(p float64, bins int) float64 {
	idx := int(p * float64(bins))
	if idx >= bins {
		idx = bins - 1
	}
	if idx < 0 {
		idx = 0
	}
	return float64(idx+1) / float64(bins)
}

// exactBH runs the textbook Benjamini–Hochberg procedure: the largest k with
// p_(k) ≤ α·k/m; returns that p-value threshold and k.
func exactBH(ps []float64, alpha float64) (float64, int64) {
	sorted := append([]float64(nil), ps...)
	sort.Float64s(sorted)
	m := float64(len(sorted))
	thr, disc := 0.0, int64(0)
	for i, p := range sorted {
		if p <= alpha*float64(i+1)/m {
			thr, disc = p, int64(i+1)
		}
	}
	return thr, disc
}

// TestBHSketchEqualsExactOnSnapped is the sketch's defining property: the
// histogram BH equals the exact procedure run on p-values rounded up to
// their bin's upper edge — the only error is the snapping, bounded by 1/W.
func TestBHSketchEqualsExactOnSnapped(t *testing.T) {
	r := rng.New(11)
	for _, bins := range []int{16, 256, 4096} {
		for trial := 0; trial < 20; trial++ {
			n := 50 + int(r.Float64()*500)
			ps := make([]float64, n)
			h := make([]int64, bins)
			snapped := make([]float64, n)
			for i := range ps {
				p := r.Float64()
				if r.Bernoulli(0.3) {
					p *= 0.01 // a cluster of small p-values so BH fires
				}
				ps[i] = p
				histAdd(h, p)
				snapped[i] = snap(p, bins)
			}
			got := bhFromHist(h, int64(n), 0.1)
			wantThr, wantDisc := exactBH(snapped, 0.1)
			if math.Float64bits(got.Threshold) != math.Float64bits(wantThr) || got.Discoveries != wantDisc {
				t.Fatalf("bins=%d trial %d: sketch (%v, %d), exact-on-snapped (%v, %d)",
					bins, trial, got.Threshold, got.Discoveries, wantThr, wantDisc)
			}
			// Conservativeness: snapping p-values up can only shrink the
			// BH discovery set.
			_, exactDisc := exactBH(ps, 0.1)
			if got.Discoveries > exactDisc {
				t.Fatalf("bins=%d trial %d: sketch found %d discoveries, exact BH only %d",
					bins, trial, got.Discoveries, exactDisc)
			}
		}
	}
}

// TestBHSketchConvergesToExact pins the error bound's limit: once the sketch
// is fine enough that no two decisions fall in the same bin, it matches exact
// BH discovery-for-discovery.
func TestBHSketchConvergesToExact(t *testing.T) {
	r := rng.New(23)
	const bins = 1 << 22
	n := 200
	ps := make([]float64, n)
	h := make([]int64, bins)
	for i := range ps {
		p := r.Float64()
		if i%4 == 0 {
			p *= 0.001
		}
		ps[i] = p
		histAdd(h, p)
	}
	got := bhFromHist(h, int64(n), 0.05)
	_, wantDisc := exactBH(ps, 0.05)
	if got.Discoveries != wantDisc {
		t.Fatalf("sketch at W=%d found %d discoveries, exact BH %d", bins, got.Discoveries, wantDisc)
	}
}

func TestBHFromHistDegenerate(t *testing.T) {
	if got := bhFromHist(make([]int64, 8), 0, 0.05); got.Threshold != 0 || got.Discoveries != 0 {
		t.Fatalf("empty input produced %+v", got)
	}
	// All p-values large: nothing passes.
	h := make([]int64, 8)
	h[7] = 100
	if got := bhFromHist(h, 100, 0.05); got.Threshold != 0 || got.Discoveries != 0 {
		t.Fatalf("all-large input produced %+v", got)
	}
	// All p-values tiny: everything passes.
	h2 := make([]int64, 8)
	h2[0] = 100
	got := bhFromHist(h2, 100, 0.5)
	if got.Discoveries != 100 || got.Threshold != 0.125 {
		t.Fatalf("all-small input produced %+v", got)
	}
}

// TestMergePartialsOrderIndependent pins the driver merge: partials combined
// in any order produce the identical result.
func TestMergePartialsOrderIndependent(t *testing.T) {
	pairs := randomPairs(7, 300)
	const k, bins = 20, 64
	mk := func(chunk []PairResult) partial {
		acc := newAccumulator(k, bins)
		for _, p := range chunk {
			acc.add(p)
		}
		return acc.partial()
	}
	parts := []partial{mk(pairs[:100]), mk(pairs[100:150]), mk(pairs[150:])}
	fwd := mergePartials(parts, k, bins)
	rev := mergePartials([]partial{parts[2], parts[0], parts[1]}, k, bins)
	if fwd.Tested != rev.Tested || fwd.FDR != rev.FDR || len(fwd.TopK) != len(rev.TopK) {
		t.Fatalf("merge order changed result: %+v vs %+v", fwd, rev)
	}
	for i := range fwd.TopK {
		if fwd.TopK[i] != rev.TopK[i] {
			t.Fatalf("merge order changed top-K entry %d", i)
		}
	}
	// And the merged top-K equals the top-K of the full stream.
	whole := mk(pairs)
	for i, p := range whole.Top {
		if fwd.TopK[i] != p {
			t.Fatalf("merged top-K entry %d = %+v, stream top-K %+v", i, fwd.TopK[i], p)
		}
	}
}
