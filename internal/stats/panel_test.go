package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

// panelEdge are the values a seeded panel fixture mixes into its normal
// draws: both zeros and magnitudes that cancel, underflow and sit a doubling
// away from overflow, so a reordered or fused sum would show.
var panelEdge = []float64{0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, -1e-300}

// panelFixture builds a rows × patients packed block whose row j has minor
// allele frequency maf(j) and a missingShare of its calls missing, and a
// patients × width panel of standard normals with an edgeShare of the entries
// replaced by draws from panelEdge.
func panelFixture(seed uint64, patients, rows, width int, maf func(row int) float64, missingShare, edgeShare float64) (data.GenoBlock, []float64) {
	r := rng.New(seed)
	blk := data.NewGenoBlock(patients, rows)
	g := make([]data.Genotype, patients)
	for j := 0; j < rows; j++ {
		p := maf(j)
		for i := range g {
			g[i] = data.Genotype(r.Binomial(2, p))
			if r.Bernoulli(missingShare) {
				g[i] = data.MissingGenotype
			}
		}
		if err := blk.AppendRow(j, g); err != nil {
			panic(err)
		}
	}
	panel := make([]float64, patients*width)
	for i := range panel {
		if r.Bernoulli(edgeShare) {
			panel[i] = panelEdge[r.Intn(len(panelEdge))]
		} else {
			panel[i] = r.Normal()
		}
	}
	return blk, panel
}

// checkPanelColumns pins every column of PanelKernel.Scores to
// PackedRowScores over the same block and the panel's k-th column, bit for
// bit (−0 differs from +0).
func checkPanelColumns(t *testing.T, blk data.GenoBlock, panel []float64, width int) {
	t.Helper()
	got := NewPanelKernel(blk.Patients, width, panel).Scores(blk, nil)
	if len(got) != blk.Rows()*width {
		t.Fatalf("%d scores for %d rows x %d replicates", len(got), blk.Rows(), width)
	}
	col := make([]float64, blk.Patients)
	for k := 0; k < width; k++ {
		for i := range col {
			col[i] = panel[i*width+k]
		}
		for r, want := range PackedRowScores(blk, col, nil) {
			if math.Float64bits(got[r*width+k]) != math.Float64bits(want) {
				t.Fatalf("patients=%d rows=%d width=%d: panel[%d][%d] = %v, PackedRowScores %v",
					blk.Patients, blk.Rows(), width, r, k, got[r*width+k], want)
			}
		}
	}
}

// panelPatients and panelWidths are the shapes the contract is pinned at:
// every patient count around the four lanes and the partial byte; around the
// compaction's 32-patient AVX2 steps — none, exactly one, one and a partial
// byte, one and a tail, two, two and a tail, four and a partial byte; the
// benchmark's cohorts and one that ends mid-byte; width 1, a lone partial
// tile, a whole tile, tile-and-tail, one tile pair, a pair and an odd tile,
// core's tail and batch widths, and the all-pairs cross's 256-phenotype
// batch.
var (
	panelPatients = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 129, 500, 503, 1000}
	panelWidths   = []int{1, 2, 7, 8, 9, 16, 24, 44, 64, 256}
)

// TestPanelKernelMatchesPackedRowScoresBitwise is the panel kernel's
// contract: whatever the width, every column is PackedRowScores on that
// column, with missing calls present, monomorphic and saturated rows, and the
// empty block, on every cell walk the host has.
func TestPanelKernelMatchesPackedRowScoresBitwise(t *testing.T) {
	maf := func(row int) float64 { return []float64{0, 0.02, 0.3, 0.5, 1}[row%5] }
	walkBodies(t, func(t *testing.T) {
		for _, patients := range panelPatients {
			for _, rows := range []int{0, 1, 11} {
				for _, width := range panelWidths {
					blk, panel := panelFixture(uint64(patients*1000+rows*100+width), patients, rows, width, maf, 0.05, 0.25)
					checkPanelColumns(t, blk, panel, width)
				}
			}
		}
	})
}

// TestPanelKernelReusesScratchAcrossBlocks scores blocks of different row
// counts through one kernel, as a fold task does: stale cell lists from a
// larger block must not leak into a smaller one.
func TestPanelKernelReusesScratchAcrossBlocks(t *testing.T) {
	const patients, width = 37, 9
	_, panel := panelFixture(1, patients, 0, width, nil, 0, 0)
	k := NewPanelKernel(patients, width, panel)
	var out []float64
	for _, rows := range []int{12, 3, 12, 0, 5} {
		blk, _ := panelFixture(uint64(rows), patients, rows, 0, func(int) float64 { return 0.4 }, 0.1, 0)
		out = k.Scores(blk, out)
		fresh := NewPanelKernel(patients, width, panel).Scores(blk, nil)
		if fmt.Sprint(out) != fmt.Sprint(fresh) {
			t.Fatalf("%d rows: a reused kernel scores %v, a fresh one %v", rows, out, fresh)
		}
	}
}

// TestPanelKernelScoresConcurrently runs Scores calls on one kernel and
// different blocks at once, as a job's fold tasks do; under -race this pins
// the table (or the width-1 column) as read-only in Scores and each call's
// cell lists as its own, and every call must score bit for bit like a fresh
// kernel.
func TestPanelKernelScoresConcurrently(t *testing.T) {
	const patients = 67
	for _, width := range []int{1, 19} {
		_, panel := panelFixture(3, patients, 0, width, nil, 0, 0.1)
		shared := NewPanelKernel(patients, width, panel)
		var wg sync.WaitGroup
		for _, rows := range []int{40, 7, 60} {
			blk, _ := panelFixture(uint64(rows), patients, rows, 0, func(int) float64 { return 0.3 }, 0.05, 0)
			want := NewPanelKernel(patients, width, panel).Scores(blk, nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out []float64
				for range 20 {
					out = shared.Scores(blk, out)
					for i, v := range out {
						if math.Float64bits(v) != math.Float64bits(want[i]) {
							t.Errorf("width %d, %d rows: a shared kernel scores %v at %d, a fresh kernel %v", width, rows, v, i, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// checkCompaction pins compactLanes — laneChunks' 32-patient AVX2 steps where
// the host has them, then compactBytes for the rest — to compactBytes alone
// over the whole packed row of n patients: the same four lists and the same
// ends. Entries past a list's end are scratch and not compared.
func checkCompaction(t *testing.T, packed []byte, n int) {
	t.Helper()
	quarter := (n + 3) / 4
	start := [4]int{0, quarter, 2 * quarter, 3 * quarter}
	got, want := make([]uint32, 4*quarter), make([]uint32, 4*quarter)
	gotEnds, wantEnds := start, start
	compactLanes(got, packed, n, &gotEnds)
	compactBytes(want, packed, n, 0, &wantEnds)
	if gotEnds != wantEnds {
		t.Fatalf("n=%d row %x: lists end at %v, the Go loop's at %v", n, packed, gotEnds, wantEnds)
	}
	for l, at := range start {
		if g, w := got[at:gotEnds[l]], want[at:wantEnds[l]]; !slices.Equal(g, w) {
			t.Fatalf("n=%d row %x: lane %d lists %v, the Go loop %v", n, packed, l, g, w)
		}
	}
}

// TestPanelCompactionMatchesGoLoop runs checkCompaction over every patient
// count to 140 — no whole chunk, one, and up to four with every tail and
// partial byte — on rows of one code each (00 every patient class 2, 01
// every call missing, 10 class 1, 11 the reference homozygote) and on random
// rows.
func TestPanelCompactionMatchesGoLoop(t *testing.T) {
	r := rng.New(11)
	for n := 1; n <= 140; n++ {
		packed := make([]byte, (n+3)/4)
		for _, fill := range []byte{0x00, 0x55, 0xaa, 0xff} {
			for i := range packed {
				packed[i] = fill
			}
			checkCompaction(t, packed, n)
		}
		for range 8 {
			for i := range packed {
				packed[i] = byte(r.Intn(256))
			}
			checkCompaction(t, packed, n)
		}
	}
}

// FuzzPanelCompaction is checkCompaction on arbitrary rows: raw[1:] is the
// packed row and raw[0] mod 4 how many patients its last byte lacks. Every
// code is a byte pattern away, the missing one included; the checked-in
// seeds cover no whole chunk, exactly one, and a chunk, tail bytes and a
// partial byte.
func FuzzPanelCompaction(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		checkCompaction(t, raw[1:], 4*(len(raw)-1)-int(raw[0]%4))
	})
}

func TestPanelKernelRejectsWrongShapes(t *testing.T) {
	blk, panel := panelFixture(1, 5, 2, 3, func(int) float64 { return 0.3 }, 0, 0)
	for name, call := range map[string]func(){
		"short panel":   func() { NewPanelKernel(5, 3, panel[:len(panel)-1]) },
		"zero width":    func() { NewPanelKernel(5, 0, nil) },
		"foreign block": func() { NewPanelKernel(4, 3, panel[:12]).Scores(blk, nil) },
		"width one":     func() { NewPanelKernel(4, 1, panel[:4]).Scores(blk, nil) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "stats: ") {
					t.Errorf("%s: panic %q, want a stats: message", name, msg)
				}
			}()
			call()
		}()
	}
}

// TestPanelResidualsMatchContributions pins the identity Algorithm 3 now
// rests on, Σ_i Z_ik U_ij = Σ_l G_lj R̃_lk, against the arithmetic it
// replaced: the panel kernel over PanelResiduals must equal MonteCarloScore
// over the model's own Contributions within 1e-9, for every family and
// covariate-adjusted model and, for Cox, whatever the tie and censoring
// structure — tie groups with no event and risk weights included.
func TestPanelResidualsMatchContributions(t *testing.T) {
	const patients, rows, width = 301, 9, 11
	cov := make([][]float64, patients)
	for i, r := 0, rng.New(3); i < patients; i++ {
		cov[i] = []float64{r.Normal(), r.Float64()}
	}
	type fixture struct {
		name       string
		family     string
		covariates [][]float64
		reshape    func(ph *data.Phenotype)
	}
	cases := []fixture{
		{"gaussian", "gaussian", nil, nil},
		{"binomial", "binomial", nil, nil},
		{"adjusted gaussian", "gaussian", cov, nil},
		{"adjusted binomial", "binomial", cov, nil},
		{"cox", "cox", nil, nil},
		{"cox, heavy ties, 30% censored", "cox", nil, func(ph *data.Phenotype) {
			for i := range ph.Y {
				ph.Y[i] = float64(i % 7)
				ph.Event[i] = uint8(min(i%10/3, 1))
			}
		}},
		{"cox, tie groups with no event", "cox", nil, func(ph *data.Phenotype) {
			for i := range ph.Y {
				ph.Y[i] = float64(i % 5)
				ph.Event[i] = uint8(i % 5 % 2)
			}
		}},
		{"cox, all censored", "cox", nil, func(ph *data.Phenotype) { clear(ph.Event) }},
		{"adjusted cox", "cox", cov, nil},
		{"adjusted cox, heavy ties", "cox", cov, func(ph *data.Phenotype) {
			for i := range ph.Y {
				ph.Y[i] = math.Floor(ph.Y[i] / 6)
			}
		}},
	}
	for _, tc := range cases {
		ph, _ := kernelFixture(t, patients, 0, tc.family == "binomial")
		if tc.reshape != nil {
			tc.reshape(ph)
		}
		model, err := NewAdjustedModel(tc.family, ph, tc.covariates)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		blk, z := panelFixture(5, patients, rows, width, func(row int) float64 { return 0.05 + 0.05*float64(row) }, 0.03, 0)
		panel := model.PanelResiduals(z, width)
		got := NewPanelKernel(patients, width, panel).Scores(blk, nil)
		ub := NewBlockKernel(model).Contributions(blk)
		col := make([]float64, patients)
		for k := 0; k < width; k++ {
			for i := range col {
				col[i] = z[i*width+k]
			}
			for r, want := range ub.Scores(col, nil) {
				if diff := math.Abs(got[r*width+k] - want); !(diff <= 1e-9*math.Max(1, math.Abs(want))) {
					t.Fatalf("%s row %d replicate %d: %v off the residual panel, %v reweighting contributions (diff %g)",
						tc.name, r, k, got[r*width+k], want, diff)
				}
			}
		}
		// Unit weights are the observed score's residuals, to the bit.
		ones := make([]float64, patients)
		for i := range ones {
			ones[i] = 1
		}
		for i, v := range model.PanelResiduals(ones, 1) {
			if r := model.ScoreResiduals()[i]; math.Float64bits(v) != math.Float64bits(r) {
				t.Fatalf("%s patient %d: panel residual under unit weights %v, score residual %v", tc.name, i, v, r)
			}
		}
	}
}

func TestPanelResidualsRejectWrongPanelLength(t *testing.T) {
	ph, _ := kernelFixture(t, 5, 0, false)
	for _, family := range []string{"cox", "gaussian"} {
		model, err := NewModel(family, ph)
		if err != nil {
			t.Fatal(err)
		}
		for name, call := range map[string]func(){
			"short panel": func() { model.PanelResiduals(make([]float64, 14), 3) },
			"zero width":  func() { model.PanelResiduals(nil, 0) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "values for 5 patients") {
						t.Errorf("%s, %s: panic %q, want the panel shape message", family, name, msg)
					}
				}()
				call()
			}()
		}
	}
}

// TestCheckResiduals covers each refusal: a residual, a Cox risk weight and a
// Cox risk-set sum that is not finite, or finite without the headroom a
// replicate's scaling and the class table's doubling need.
func TestCheckResiduals(t *testing.T) {
	ph, _ := kernelFixture(t, 12, 0, false)
	for i := range ph.Event {
		ph.Event[i] = 1
	}
	cox := func(w ...float64) *Cox {
		c, err := newCox(ph, nil)
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, 12)
		for i := range weights {
			weights[i] = 1
		}
		copy(weights[4:], w)
		return withRiskWeights(c, weights)
	}
	gaussian := func(at int, y float64) *linear {
		q := *ph
		q.Y = append([]float64(nil), ph.Y...)
		q.Y[at] = y
		g, err := newLinear("gaussian", &q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	zeros := make([]float64, 12)
	for _, tc := range []struct {
		name  string
		model Model
		want  string
	}{
		{"finite cox", cox(0.5, 2), ""},
		{"finite gaussian", gaussian(0, 3), ""},
		{"infinite outcome", gaussian(7, math.Inf(1)), "stats: score residual -Inf for patient 0"},
		{"no headroom", gaussian(7, 1e300), "stats: score residual"},
		{"infinite risk weight", cox(math.Inf(1)), "stats: cox risk weight +Inf for patient 4"},
		{"NaN risk weight", cox(1, math.NaN()), "stats: cox risk weight NaN for patient 5"},
		{"empty risk sets", withRiskWeights(cox(), zeros), "stats: cox risk-set weight sum 0 for patient 0"},
	} {
		err := CheckResiduals(tc.model)
		if (err == nil) != (tc.want == "") || (err != nil && !strings.HasPrefix(err.Error(), tc.want)) {
			t.Errorf("%s: CheckResiduals = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzPanelKernel is the same bitwise pin over fuzzer-chosen shapes, 2-bit
// codes (the missing code included) and raw float bit patterns, on every cell
// walk the host has: the first three bytes pick patients, width and rows, the
// rest is read cyclically, two bits a genotype and then eight bytes a panel
// value. The contract holds for panels whose doubles are finite, so a pattern
// that is not has its top exponent bit cleared.
func FuzzPanelKernel(f *testing.F) {
	f.Add([]byte{3, 4, 2, 0x1b, 0xe4, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		patients := panelPatients[int(raw[0])%len(panelPatients)]
		width := panelWidths[int(raw[1])%len(panelWidths)]
		rows := int(raw[2]) % 5
		raw = raw[3:]
		blk := data.NewGenoBlock(patients, rows)
		g := make([]data.Genotype, patients)
		for j := 0; j < rows; j++ {
			for i := range g {
				at := j*patients + i
				g[i] = data.CodeGenotypes[raw[at/4%len(raw)]>>uint(at%4*2)&3]
			}
			if err := blk.AppendRow(j, g); err != nil {
				t.Fatal(err)
			}
		}
		panel := make([]float64, patients*width)
		for i := range panel {
			var b [8]byte
			for j := range b {
				b[j] = raw[(8*i+j)%len(raw)]
			}
			bits := binary.LittleEndian.Uint64(b[:])
			if d := 2 * math.Float64frombits(bits); math.IsNaN(d) || math.IsInf(d, 0) {
				bits &^= 1 << 62
			}
			panel[i] = math.Float64frombits(bits)
		}
		eachWalk(func(walk string) {
			t.Logf("walk: %s", walk)
			checkPanelColumns(t, blk, panel, width)
		})
	})
}

// BenchmarkPackedPanel measures the Monte Carlo kernel as a job runs it: the
// kernel built once, as the driver builds it, and shared by every pass, as
// a job's fold tasks share it (the scratch comes from the kernel's pool),
// scoring mc_cached's genotype matrix — 20 000 SNPs in blocks of 256, minor
// allele frequencies ~ U(0.01, 0.5) as gen draws them — and reports ns per
// (genotype, replicate). The widths are the b = 1 of a served Replicate
// (PackedRowScores itself, which is why width 1 dispatches to it), one tile,
// and core.mcBatch = 64, chosen from this benchmark.
func BenchmarkPackedPanel(b *testing.B) {
	const snps = 20000
	for _, patients := range []int{500, 1000} {
		var blocks []data.GenoBlock
		mafs := rng.New(7)
		for at := 0; at < snps; at += data.GenoBlockRows {
			blk, _ := panelFixture(uint64(at), patients, min(data.GenoBlockRows, snps-at), 0,
				func(int) float64 { return 0.01 + 0.49*mafs.Float64() }, 0, 0)
			blocks = append(blocks, blk)
		}
		for _, width := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("patients=%d/b=%d", patients, width), func(b *testing.B) {
				_, panel := panelFixture(99, patients, 0, width, nil, 0, 0)
				shared := NewPanelKernel(patients, width, panel)
				var out []float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, blk := range blocks {
						out = shared.Scores(blk, out)
					}
				}
				elems := float64(b.N) * snps * float64(patients) * float64(width)
				b.ReportMetric(b.Elapsed().Seconds()*1e9/elems, "ns/elem-replicate")
			})
		}
	}
}

// walkOutcome runs walk and reports its sums, or what it panicked with.
func walkOutcome[S any](walk func(*S)) (sums S, panicked any) {
	defer func() { panicked = recover() }()
	walk(&sums)
	return sums, nil
}

// checkWalk requires a walk's sums to equal sumCells': the same panic, or the
// same bits in every column of every sum (or NaN both, when nan is set).
func checkWalk(t *testing.T, shape, walk string, got, want []panelCell, gotPanic, wantPanic any, nan bool) {
	t.Helper()
	if fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
		t.Fatalf("%s: %s panicked with %v, sumCells with %v", shape, walk, gotPanic, wantPanic)
	}
	for l := range want {
		for c, w := range want[l] {
			g := got[l][c]
			if math.Float64bits(g) != math.Float64bits(w) && !(nan && math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: %s sum %d column %d is %v (%#x), sumCells gives %v (%#x)",
					shape, walk, l, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// checkCellPairs requires sumCellPairs(tile, a, b) to equal sumCells over a
// then over b: the same bits in all sixteen columns (or NaN both, when nan is
// set), or the same panic.
func checkCellPairs(t *testing.T, tile []panelCell, a, b []uint32, nan bool) {
	t.Helper()
	want, wantPanic := walkOutcome(func(s *[2]panelCell) {
		sumCells(tile, a, &s[0])
		sumCells(tile, b, &s[1])
	})
	got, gotPanic := walkOutcome(func(s *[2]panelCell) { sumCellPairs(tile, a, b, s) })
	shape := fmt.Sprintf("lists of %d and %d over %d cells", len(a), len(b), len(tile))
	checkWalk(t, shape, "sumCellPairs", got[:], want[:], gotPanic, wantPanic, nan)
}

// checkTilePairs requires sumTilePairs(pair, a, b) to equal sumCells over a
// then over b on the pair's first tile, then over a and b on its second: the
// same bits in all thirty-two columns (or NaN both, when nan is set), or the
// same panic.
func checkTilePairs(t *testing.T, pair []panelCell, a, b []uint32, nan bool) {
	t.Helper()
	half := len(pair) / 2
	want, wantPanic := walkOutcome(func(s *[4]panelCell) {
		sumCells(pair[:half], a, &s[0])
		sumCells(pair[:half], b, &s[1])
		sumCells(pair[half:2*half], a, &s[2])
		sumCells(pair[half:2*half], b, &s[3])
	})
	got, gotPanic := walkOutcome(func(s *[4]panelCell) { sumTilePairs(pair, a, b, s) })
	shape := fmt.Sprintf("lists of %d and %d over two tiles of %d cells", len(a), len(b), half)
	checkWalk(t, shape, "sumTilePairs", got[:], want[:], gotPanic, wantPanic, nan)
}

// cellWalkFixture returns a tile of the given cell count mixing ±0,
// subnormals and magnitudes from 1e-300 to 1e300, and a drawer of lists of
// its cells.
func cellWalkFixture(r *rng.RNG, cells int) ([]panelCell, func(n int) []uint32) {
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030, 1e300, -1e300, 1e-300}
	tile := make([]panelCell, cells)
	for i := range tile {
		for c := range tile[i] {
			if r.Bernoulli(0.3) {
				tile[i][c] = edge[r.Intn(len(edge))]
			} else {
				tile[i][c] = r.Normal() * math.Pow(10, float64(r.Intn(9)-4))
			}
		}
	}
	list := func(n int) []uint32 {
		l := make([]uint32, n)
		for i := range l {
			l[i] = uint32(r.Intn(cells))
		}
		return l
	}
	return tile, list
}

// walkLengths are the list lengths the walks are pinned at, every pairing of
// them: either list empty, shorter than, as long as and longer than the
// other, and long.
var walkLengths = []int{0, 1, 2, 3, 7, 64, 257}

// badIndexLists calls check on lists of 1, 3 and 7 entries with one index
// set to bad, in either list, first (the shared walk) or last (a tail, or
// the shared walk's last step).
func badIndexLists(list func(n int) []uint32, bad uint32, check func(a, b []uint32)) {
	for _, la := range []int{1, 3, 7} {
		for _, lb := range []int{1, 3, 7} {
			for side := 0; side < 2; side++ {
				for _, first := range []bool{true, false} {
					a, b := list(la), list(lb)
					l := [2][]uint32{a, b}[side]
					if first {
						l[0] = bad
					} else {
						l[len(l)-1] = bad
					}
					check(a, b)
				}
			}
		}
	}
}

// TestSumCellPairsMatchesSumCells pins the two-list walk to two sumCells
// calls bit for bit, on every cell walk the host has, over every pairing of
// list lengths on a tile mixing ±0, subnormals and magnitudes from 1e-300 to
// 1e300, and requires an index equal to len(tile) or MaxUint32, in either
// list, in the shared walk or in a tail, to panic as sumCells does.
func TestSumCellPairsMatchesSumCells(t *testing.T) {
	walkBodies(t, func(t *testing.T) {
		tile, list := cellWalkFixture(rng.New(26), 53)
		for _, la := range walkLengths {
			for _, lb := range walkLengths {
				checkCellPairs(t, tile, list(la), list(lb), false)
			}
		}
		for _, bad := range []uint32{uint32(len(tile)), math.MaxUint32} {
			badIndexLists(list, bad, func(a, b []uint32) { checkCellPairs(t, tile, a, b, false) })
		}
	})
}

// TestSumTilePairsMatchesSumCells pins the two-tile walk to four sumCells
// calls bit for bit, on every cell walk the host has: two tiles of different
// values, every pairing of list lengths, and an index out of range of a tile
// — its cell count, which is the second tile's first cell, the pair's length,
// or MaxUint32 — in either list, the shared walk or a tail, panicking as
// sumCells does on the first tile.
func TestSumTilePairsMatchesSumCells(t *testing.T) {
	walkBodies(t, func(t *testing.T) {
		const cells = 53
		r := rng.New(27)
		first, list := cellWalkFixture(r, cells)
		second, _ := cellWalkFixture(r, cells)
		pair := append(first, second...)
		for _, la := range walkLengths {
			for _, lb := range walkLengths {
				checkTilePairs(t, pair, list(la), list(lb), false)
			}
		}
		for _, bad := range []uint32{cells, 2 * cells, math.MaxUint32} {
			badIndexLists(list, bad, func(a, b []uint32) { checkTilePairs(t, pair, a, b, false) })
		}
	})
}

// FuzzSumCellPairs is the same pin over arbitrary tile bits, NaN and ±Inf
// included, and arbitrary lists, for both walks — the two-list walk over the
// first tile and the two-tile walk over both — on every cell walk the host
// has: equal bits or NaN both, or the same panic. The first three bytes pick
// a tile's cell count and the two list lengths (a length byte below 0xf0 is
// a length below 40, 0xf0–0xff the long lists 242–257); the rest is read
// cyclically, one byte an index (0xfe is a tile's cell count — out of range
// of a tile, the second tile's first cell in the pair — 0xff MaxUint32,
// anything else an in-range cell) and then eight bytes a tile value, the
// first tile's values before the second's.
func FuzzSumCellPairs(f *testing.F) {
	f.Add([]byte{3, 5, 2, 0, 1, 2, 3, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		length := func(b byte) int {
			if b >= 0xf0 {
				return int(b) + 2
			}
			return int(b) % 40
		}
		cells, la, lb := 1+int(raw[0])%16, length(raw[1]), length(raw[2])
		raw = raw[3:]
		at := 0
		next := func() byte { at++; return raw[(at-1)%len(raw)] }
		index := func() uint32 {
			switch sel := next(); sel {
			case 0xfe:
				return uint32(cells)
			case 0xff:
				return math.MaxUint32
			default:
				return uint32(int(sel) % cells)
			}
		}
		a, b := make([]uint32, la), make([]uint32, lb)
		for i := range a {
			a[i] = index()
		}
		for i := range b {
			b[i] = index()
		}
		pair := make([]panelCell, 2*cells)
		for i := range pair {
			for c := range pair[i] {
				var v [8]byte
				for j := range v {
					v[j] = next()
				}
				pair[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(v[:]))
			}
		}
		eachWalk(func(walk string) {
			t.Logf("walk: %s", walk)
			checkCellPairs(t, pair[:cells], a, b, true)
			checkTilePairs(t, pair, a, b, true)
		})
	})
}

// walkBodies runs f as one subtest per cell walk the host has (eachWalk).
func walkBodies(t *testing.T, f func(t *testing.T)) {
	eachWalk(func(walk string) { t.Run(walk, f) })
}
