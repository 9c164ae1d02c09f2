package assoc

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// randomPairs draws n scored pairs of distinct p-values: standard-normal
// scores over variances in [1, 2).
func randomPairs(seed uint64, n int) []PairResult {
	r := rng.New(seed)
	out := make([]PairResult, n)
	for i := range out {
		out[i] = pairResult(int32(i/7), int32(i%7), r.Normal(), 1+r.Float64())
	}
	return out
}

// histAdd counts p into its bin of h, as the exact path does for every pair.
func histAdd(h []int64, p float64) { h[histBin(p, len(h))]++ }

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
		acc := newAccumulator(k, newBHEdge(bins, fdrAlpha))
		for _, p := range chunk {
			acc.addRow(p.SNP, []int32{p.Pheno}, []float64{p.Score}, []float64{p.Variance})
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

// pairRow is one kernel row as the accumulator sees it.
type pairRow struct {
	snp               int32
	phenos            []int32
	scores, variances []float64
}

// exactPartial is the partial of the path without cut-offs: every pair
// scored, every bin counted, every pair offered to the heap.
func exactPartial(k, bins int, rows []pairRow) partial {
	out := partial{Hist: make([]int64, bins)}
	top := newTopK(k)
	for _, r := range rows {
		for p, s := range r.scores {
			pr := pairResult(r.snp, r.phenos[p], s, r.variances[p])
			out.Tested++
			histAdd(out.Hist, pr.PValue)
			top.add(pr)
		}
	}
	out.Top = top.sorted()
	return out
}

// checkCutoff streams rows through the cut-off accumulator and the exact
// path and requires equal Tested, Float64bits-equal tops and an equal BH
// result; it returns the accumulator for the caller's non-vacuity checks.
func checkCutoff(t *testing.T, k, bins int, rows []pairRow) *accumulator {
	t.Helper()
	acc := newAccumulator(k, newBHEdge(bins, fdrAlpha))
	for _, r := range rows {
		acc.addRow(r.snp, r.phenos, r.scores, r.variances)
	}
	got, want := acc.partial(), exactPartial(k, bins, rows)
	if got.Tested != want.Tested {
		t.Fatalf("k=%d bins=%d: tested %d, exact %d", k, bins, got.Tested, want.Tested)
	}
	if len(got.Top) != len(want.Top) {
		t.Fatalf("k=%d bins=%d: kept %d pairs, exact %d", k, bins, len(got.Top), len(want.Top))
	}
	for i, g := range got.Top {
		w := want.Top[i]
		if g.SNP != w.SNP || g.Pheno != w.Pheno ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Variance) != math.Float64bits(w.Variance) ||
			math.Float64bits(g.PValue) != math.Float64bits(w.PValue) {
			t.Fatalf("k=%d bins=%d: top entry %d = %+v, exact %+v", k, bins, i, g, w)
		}
	}
	if g, w := bhFromHist(got.Hist, got.Tested, fdrAlpha), bhFromHist(want.Hist, want.Tested, fdrAlpha); g != w {
		t.Fatalf("k=%d bins=%d: FDR %+v, exact %+v", k, bins, g, w)
	}
	return acc
}

// onePairRows makes one row per (score, variance), SNP ids in stream order.
func onePairRows(pairs ...[2]float64) []pairRow {
	rows := make([]pairRow, len(pairs))
	for i, p := range pairs {
		rows[i] = pairRow{snp: int32(i), phenos: []int32{0}, scores: []float64{p[0]}, variances: []float64{p[1]}}
	}
	return rows
}

// TestBHEdgeKeepsTheBinsAtOrBelowAlpha pins the run-wide cut-off: keep counts
// the bins whose upper edge bhFromHist could accept, a χ² just below the
// cut-off lands past them, and the cut-off is tight — 1e-5 above it, p is
// back in a kept bin — wherever any bin is kept.
func TestBHEdgeKeepsTheBinsAtOrBelowAlpha(t *testing.T) {
	for _, c := range []struct{ bins, keep int }{
		{1, 0}, {19, 0}, {20, 1}, {21, 1}, {40, 2}, {512, 25}, {4096, 204}, {1 << 20, 52428},
	} {
		e := newBHEdge(c.bins, fdrAlpha)
		if e.keep != c.keep {
			t.Fatalf("bins=%d: keep %d, want %d", c.bins, e.keep, c.keep)
		}
		if c.keep == 0 {
			if !math.IsInf(e.cut, 1) {
				t.Fatalf("bins=%d: no bin is kept, yet cut-off %v counts some pairs", c.bins, e.cut)
			}
			continue
		}
		below := stats.ChiSquaredSurvival(math.Nextafter(e.cut, 0), 1)
		if b := histBin(below, c.bins); b < e.keep {
			t.Fatalf("bins=%d: χ² just below the cut-off %v lands in kept bin %d", c.bins, e.cut, b)
		}
		above := stats.ChiSquaredSurvival(e.cut*(1+1e-5), 1)
		if b := histBin(above, c.bins); b >= e.keep {
			t.Fatalf("bins=%d: cut-off %v is not tight: 1e-5 above it p = %v, bin %d", c.bins, e.cut, above, b)
		}
		// Pairs just above the cut-off, in the last kept bin but at
		// W = 2²⁰: BH sets its threshold there.
		rows := onePairRows([2]float64{math.Sqrt(e.cut * (1 + 1e-5)), 1}, [2]float64{math.Sqrt(e.cut * (1 + 2e-5)), 1})
		acc := checkCutoff(t, 1, c.bins, rows)
		if got := bhFromHist(acc.hist, acc.tested, fdrAlpha); got.Discoveries != 2 {
			t.Fatalf("bins=%d: pairs in the last kept bin gave %+v, want both discovered", c.bins, got)
		}
	}
}

// TestCutoffHazards pins the four ways a cut-off could drop a pair the exact
// path keeps, each against the exact path.
func TestCutoffHazards(t *testing.T) {
	t.Run("NaN χ² takes the exact path", func(t *testing.T) {
		// A NaN score bins at 0 and so can set the BH threshold.
		rows := onePairRows([2]float64{3, 1}, [2]float64{0.1, 1}, [2]float64{math.NaN(), 1}, [2]float64{0.2, 1})
		if acc := checkCutoff(t, 1, 4096, rows); acc.scored != 2 {
			t.Fatalf("scored %d pairs, want the first, the NaN one and no other", acc.scored)
		}
	})
	t.Run("zero variance is counted only", func(t *testing.T) {
		rows := onePairRows([2]float64{3, 1}, [2]float64{2, 0}, [2]float64{0, 0}, [2]float64{5, -1})
		if acc := checkCutoff(t, 1, 4096, rows); acc.scored != 1 {
			t.Fatalf("scored %d pairs, want only the first", acc.scored)
		}
	})
	t.Run("no heap cut-off while the root's p is 0", func(t *testing.T) {
		// χ² 2000 and 1600 both underflow to p = 0, so the later, lower-SNP
		// pair beats the root on the tie rule although its χ² is far lower.
		rows := onePairRows([2]float64{math.Sqrt(2000), 1}, [2]float64{40, 1})
		rows[0].snp = 9
		if stats.ChiSquaredSurvival(1600, 1) != 0 {
			t.Fatal("χ² = 1600 no longer underflows: pick a larger fixture χ²")
		}
		if acc := checkCutoff(t, 1, 1, rows); acc.scored != 2 {
			t.Fatalf("scored %d pairs, want both", acc.scored)
		}
	})
	t.Run("no heap cut-off where erfc is flat", func(t *testing.T) {
		// Near χ² = 0 a relative 1e-6 moves no bit of p: the second pair ties
		// the root's p and wins on SNP.
		root, next := 1e-30, 1e-30*(1-2*cutMargin)
		if stats.ChiSquaredSurvival(root, 1) != stats.ChiSquaredSurvival(next, 1) {
			t.Fatal("the fixture χ² values no longer tie in p")
		}
		rows := onePairRows([2]float64{math.Sqrt(root), 1}, [2]float64{math.Sqrt(next), 1})
		rows[0].snp = 9
		if acc := checkCutoff(t, 1, 1, rows); acc.scored != 2 {
			t.Fatalf("scored %d pairs, want both", acc.scored)
		}
	})
}

// TestCutoffCountsMostOfANullStream is the cut-off's non-vacuity: on a null
// stream most pairs are counted without a p-value, and the partial is the
// exact path's.
func TestCutoffCountsMostOfANullStream(t *testing.T) {
	pairs := randomPairs(13, 20000)
	rows := make([]pairRow, 0, len(pairs)/7)
	for i := 0; i+7 <= len(pairs); i += 7 {
		r := pairRow{snp: pairs[i].SNP}
		for _, p := range pairs[i : i+7] {
			r.phenos = append(r.phenos, p.Pheno)
			r.scores = append(r.scores, p.Score)
			r.variances = append(r.variances, p.Variance)
		}
		rows = append(rows, r)
	}
	for _, k := range []int{0, 1, 100} {
		acc := checkCutoff(t, k, 4096, rows)
		if acc.scored*5 > acc.tested {
			t.Fatalf("k=%d: scored %d of %d pairs, want at most a fifth", k, acc.scored, acc.tested)
		}
	}
}

// FuzzAccumulatorCutoff feeds arbitrary kernel rows — NaN, ±Inf, ±0,
// subnormal and tied scores and variances, repeated pair ids — through the
// cut-off accumulator and the exact path; the partials must agree.
func FuzzAccumulatorCutoff(f *testing.F) {
	f.Add([]byte{2, 6, 0x13, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	palette := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1e-310, 1e-30, 1e-15, 0.5, 1, 1.96, 2, 3,
		40, 45, 1e155, -1, -1.96, -40, math.MaxFloat64,
	}
	widths := []int{1, 2, 19, 20, 21, 64, 512, 4096}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		k, bins := int(raw[0]%9), widths[int(raw[1])%len(widths)]
		raw = raw[2:]
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return b
		}
		value := func() float64 {
			sel := next()
			if sel%4 != 0 || len(raw) < 8 {
				return palette[int(sel/4)%len(palette)]
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
			return v
		}
		var rows []pairRow
		for len(raw) >= 2 {
			h := next()
			r := pairRow{snp: int32(h % 8)}
			for range 1 + int(h>>3)%4 {
				if len(raw) < 3 {
					break
				}
				r.phenos = append(r.phenos, int32(next()%4))
				r.scores = append(r.scores, value())
				r.variances = append(r.variances, value())
			}
			rows = append(rows, r)
		}
		checkCutoff(t, k, bins, rows)
	})
}

// binOf is the bin the accumulator gives a χ² it bins without a heap offer:
// chiBin's where the search settles it, the p-value's otherwise.
func binOf(e *bhEdge, x float64) int {
	if b, ok := e.chiBin(x); ok {
		return b
	}
	return histBin(stats.ChiSquaredSurvival(x, 1), e.bins)
}

// chi2BinWidths are the sketch widths FuzzChi2Bins runs: no kept bin, one,
// two, a few, and the default.
var chi2BinWidths = []int{1, 19, 20, 21, 40, 64, 512, 4096}

// TestChi2BinsSettleTheKeptRange is chiBin's non-vacuity: every kept bin has
// bracketed edges, and across the kept range's χ² the search alone bins all
// but a sliver of values, each into the p-value's bin. At W = 2²⁰ adjacent
// edges sit ~8e-6 apart in relative χ² near α, so the 2e-6-wide brackets
// take up to a quarter of that stretch.
func TestChi2BinsSettleTheKeptRange(t *testing.T) {
	r := rng.New(43)
	for _, c := range []struct {
		bins    int
		percent int
	}{{20, 99}, {21, 99}, {40, 99}, {64, 99}, {512, 99}, {4096, 99}, {1 << 20, 80}} {
		e := newBHEdge(c.bins, fdrAlpha)
		if len(e.hi) != e.keep || len(e.lo) != e.keep {
			t.Fatalf("bins=%d: %d and %d brackets for %d kept bins", c.bins, len(e.lo), len(e.hi), e.keep)
		}
		settled := 0
		const draws = 20000
		for range draws {
			// p uniform over the kept range, as a null stream's pairs past the
			// BH cut-off are.
			p := r.Float64() * float64(e.keep) / float64(c.bins)
			z := math.Erfcinv(p)
			x := 2 * z * z
			if b, ok := e.chiBin(x); ok {
				settled++
				if want := histBin(stats.ChiSquaredSurvival(x, 1), c.bins); b != want {
					t.Fatalf("bins=%d: χ² %v binned %d, its p-value's bin is %d", c.bins, x, b, want)
				}
			}
		}
		if settled*100 < draws*c.percent {
			t.Fatalf("bins=%d: the search settled %d of %d χ² values in the kept range, want %d %%", c.bins, settled, draws, c.percent)
		}
	}
}

// FuzzChi2Bins pins the χ² binning to the p-value's: binOf(x) must equal
// histBin(ChiSquaredSurvival(x, 1), W) at every sketch width of
// chi2BinWidths. The seeds sit on every edge — the two ends of a bisection
// for where the p-value's bin changes — and 1 and 2 ulps either side, on
// every bracket end and 1 ulp either side, and on ±0, subnormals, the normal
// floor, +Inf, NaN and a negative χ².
func FuzzChi2Bins(f *testing.F) {
	edges := make([]bhEdge, len(chi2BinWidths))
	for w, bins := range chi2BinWidths {
		edges[w] = newBHEdge(bins, fdrAlpha)
		e := &edges[w]
		ulps := func(x float64, n int) []float64 {
			out := []float64{x}
			for lo, hi := x, x; n > 0; n-- {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
				out = append(out, lo, hi)
			}
			return out
		}
		for i := range e.keep {
			below, above := bisectChi2(func(p float64) bool { return histBin(p, bins) > i })
			for _, x := range append(ulps(below, 2), ulps(above, 2)...) {
				f.Add(uint8(w), x)
			}
			for _, x := range append(ulps(e.lo[i], 1), ulps(e.hi[i], 1)...) {
				f.Add(uint8(w), x)
			}
		}
		for _, x := range []float64{
			0, math.Copysign(0, -1), 5e-324, 1e-310, 0x1p-1022, 1e-30, 1, 3.84,
			1600, 2048, math.MaxFloat64, math.Inf(1), math.NaN(), -1,
		} {
			f.Add(uint8(w), x)
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, x float64) {
		e := &edges[int(sel)%len(edges)]
		if got, want := binOf(e, x), histBin(stats.ChiSquaredSurvival(x, 1), e.bins); got != want {
			t.Fatalf("bins=%d: χ² %v (%#x) binned %d, its p-value's bin is %d", e.bins, x, math.Float64bits(x), got, want)
		}
	})
}
