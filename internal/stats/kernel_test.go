package stats

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

// kernelFixture builds a phenotype and a packed block of random rows.
func kernelFixture(t testing.TB, patients, rows int, binary bool) (*data.Phenotype, data.GenoBlock) {
	if t != nil {
		t.Helper()
	}
	r := rng.New(99)
	ph := data.NewPhenotype(patients)
	for i := range ph.Y {
		if binary {
			if r.Bernoulli(0.4) {
				ph.Y[i] = 1
			}
		} else {
			ph.Y[i] = r.Exponential(1.0 / 12)
		}
		if r.Bernoulli(0.85) {
			ph.Event[i] = 1
		}
	}
	blk := data.NewGenoBlock(patients, rows)
	g := make([]data.Genotype, patients)
	for j := 0; j < rows; j++ {
		for i := range g {
			g[i] = data.Genotype(r.Binomial(2, 0.3))
		}
		if err := blk.AppendRow(j, g); err != nil {
			panic(err)
		}
	}
	return ph, blk
}

func TestBlockKernelMatchesModelBitwise(t *testing.T) {
	const patients, rows = 37, 9
	for _, family := range []string{"cox", "gaussian", "binomial"} {
		ph, blk := kernelFixture(t, patients, rows, family == "binomial")
		model, err := NewModel(family, ph)
		if err != nil {
			t.Fatal(err)
		}
		k := NewBlockKernel(model)
		ub := k.Contributions(blk)
		if ub.Rows() != rows || ub.Patients != patients {
			t.Fatalf("%s: UBlock %dx%d", family, ub.Rows(), ub.Patients)
		}
		dec := make([]data.Genotype, patients)
		u := make([]float64, patients)
		for r := 0; r < rows; r++ {
			blk.DecodeRow(r, dec)
			model.Contributions(dec, u)
			got := ub.Row(r)
			for i := range u {
				if got[i] != u[i] {
					t.Fatalf("%s row %d patient %d: kernel %v, boxed %v", family, r, i, got[i], u[i])
				}
			}
			if got, want := k.Variance(blk, r), model.Variance(dec); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s row %d: kernel variance %v, boxed %v", family, r, got, want)
			}
		}
	}
}

func TestBlockKernelMissingScoresAsZeroDosage(t *testing.T) {
	ph := data.NewPhenotype(4)
	ph.Y = []float64{1, 2, 3, 4}
	model, err := newLinear("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := data.NewGenoBlock(4, 1)
	if err := blk.AppendRow(0, []data.Genotype{2, data.MissingGenotype, 1, 0}); err != nil {
		t.Fatal(err)
	}
	ub := NewBlockKernel(model).Contributions(blk)
	row := ub.Row(0)
	if row[1] != 0 {
		t.Fatalf("missing genotype contributed %v, want 0", row[1])
	}
	wantFirst := 2 * (ph.Y[0] - 2.5)
	if row[0] != wantFirst {
		t.Fatalf("row[0] = %v, want %v", row[0], wantFirst)
	}
}

func TestUBlockScoresMatchMonteCarloScore(t *testing.T) {
	ph, blk := kernelFixture(t, 23, 6, false)
	model, err := newLinear("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	ub := NewBlockKernel(model).Contributions(blk)
	r := rng.New(5)
	z := make([]float64, 23)
	for i := range z {
		z[i] = r.Normal()
	}
	obs := ub.Scores(nil, nil)
	mc := ub.Scores(z, nil)
	ones := make([]float64, 23)
	for i := range ones {
		ones[i] = 1
	}
	for row := 0; row < ub.Rows(); row++ {
		if want := MonteCarloScore(ub.Row(row), ones); obs[row] != want {
			t.Fatalf("row %d observed score %v, want %v", row, obs[row], want)
		}
		if want := MonteCarloScore(ub.Row(row), z); mc[row] != want {
			t.Fatalf("row %d MC score %v, want %v", row, mc[row], want)
		}
	}
}

// TestKernelAllocsFlatAcrossPatients is the allocation regression pin for the
// fused decode+accumulate kernel: allocations per block must not grow with
// the patient count (one SNP-column copy plus one flat contribution matrix).
func TestKernelAllocsFlatAcrossPatients(t *testing.T) {
	allocs := func(patients int) float64 {
		ph, blk := kernelFixture(nil, patients, 8, false)
		model, err := newLinear("gaussian", ph, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := NewBlockKernel(model)
		var sink UBlock
		n := testing.AllocsPerRun(50, func() {
			sink = k.Contributions(blk)
		})
		_ = sink
		return n
	}
	small, large := allocs(64), allocs(4096)
	if small != large {
		t.Fatalf("allocs per block changed with patients: %v @64 vs %v @4096", small, large)
	}
	if small > 3 {
		t.Fatalf("fused kernel allocates %v times per block, want <= 3", small)
	}
}

// BenchmarkBlockKernel and BenchmarkBoxedRows are the marginal-score inner
// loops of the two pipelines: fused packed-block kernel vs per-row boxed
// decode with a fresh contribution slice per SNP (what the boxed RDD path
// allocates). Run with -benchmem; the packed path's allocs/op stay flat.
func BenchmarkBlockKernel(b *testing.B) {
	ph, blk := kernelFixture(nil, 1000, 256, false)
	model, _ := newLinear("gaussian", ph, nil)
	k := NewBlockKernel(model)
	var scores []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ub := k.Contributions(blk)
		scores = ub.Scores(nil, scores)
	}
}

func BenchmarkBoxedRows(b *testing.B) {
	ph, blk := kernelFixture(nil, 1000, 256, false)
	model, _ := newLinear("gaussian", ph, nil)
	rows := make([][]data.Genotype, blk.Rows())
	for r := range rows {
		rows[r] = blk.DecodeRow(r, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range rows {
			u := make([]float64, len(g))
			model.Contributions(g, u)
			s := 0.0
			for _, v := range u {
				s += v
			}
			_ = s
		}
	}
}

// weightedNaiveCoxScore is the covariate-adjusted Cox score of one SNP by the
// literal double loop: U_j = Σ_i Δ_i (G_i − Σ_{l∈R_i} w_l G_l / Σ_{l∈R_i} w_l).
func weightedNaiveCoxScore(ph *data.Phenotype, w []float64, g []data.Genotype) float64 {
	var score float64
	for i := range g {
		if ph.Event[i] == 0 {
			continue
		}
		var a, den float64
		for l := range g {
			if ph.Y[l] >= ph.Y[i] {
				a += w[l] * float64(g[l])
				den += w[l]
			}
		}
		score += float64(g[i]) - a/den
	}
	return score
}

// TestCoxScoreResidualsMatchNaiveRowSums pins the score-residual identity to
// something that shares no code with it: PackedRowScores over
// Cox.ScoreResiduals must equal the row sums of NaiveCoxContributions (the
// weighted double loop under risk weights) within 1e-12·n, whatever the tie
// and censoring structure, for every patient count mod 4, missing genotypes
// scoring as dosage zero.
func TestCoxScoreResidualsMatchNaiveRowSums(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reshape  func(ph *data.Phenotype)
		weighted bool
	}{
		{"distinct times", func(*data.Phenotype) {}, false},
		{"heavy ties", func(ph *data.Phenotype) {
			for i := range ph.Y {
				ph.Y[i] = float64(i % 3)
			}
		}, false},
		{"all censored", func(ph *data.Phenotype) { clear(ph.Event) }, false},
		{"one event", func(ph *data.Phenotype) { clear(ph.Event); ph.Event[len(ph.Event)/2] = 1 }, false},
		{"risk weights", func(*data.Phenotype) {}, true},
		{"risk weights, heavy ties", func(ph *data.Phenotype) {
			for i := range ph.Y {
				ph.Y[i] = float64(i % 4)
			}
		}, true},
	} {
		for _, patients := range []int{36, 37, 38, 39} {
			ph, blk := kernelFixture(t, patients, 12, false)
			tc.reshape(ph)
			blk.Packed[0] = blk.Packed[0]&^3 | 1 // row 0, patient 0: missing
			cox, err := newCox(ph, nil)
			if err != nil {
				t.Fatal(err)
			}
			var w []float64
			if tc.weighted {
				w = make([]float64, patients)
				for i, r := 0, rng.New(7); i < patients; i++ {
					w[i] = 0.25 + 3*r.Float64()
				}
				cox = withRiskWeights(cox, w)
			}
			got := PackedRowScores(blk, cox.ScoreResiduals(), nil)
			g, u := make([]data.Genotype, patients), make([]float64, patients)
			for r := 0; r < blk.Rows(); r++ {
				DecodeDosageGenotypes(blk.Row(r), g)
				var want float64
				if tc.weighted {
					want = weightedNaiveCoxScore(ph, w, g)
				} else {
					NaiveCoxContributions(ph, g, u)
					for _, v := range u {
						want += v
					}
				}
				if diff := math.Abs(got[r] - want); !(diff <= 1e-12*float64(patients)) {
					t.Fatalf("%s, %d patients, row %d: score off residuals %v, naive row sum %v (diff %g)",
						tc.name, patients, r, got[r], want, diff)
				}
			}
		}
	}
}

// TestPackedRowScoresMatchContributions runs every family — plain and
// covariate-adjusted — through the packed-row kernel
// and compares with the row sums of the model's own Contributions.
func TestPackedRowScoresMatchContributions(t *testing.T) {
	const patients, rows = 41, 10
	cov := make([][]float64, patients)
	for i, r := 0, rng.New(3); i < patients; i++ {
		cov[i] = []float64{r.Normal(), r.Float64()}
	}
	for _, family := range []string{"cox", "gaussian", "binomial"} {
		for _, covariates := range [][][]float64{nil, cov} {
			ph, blk := kernelFixture(t, patients, rows, family == "binomial")
			model, err := NewAdjustedModel(family, ph, covariates)
			if err != nil {
				t.Fatal(err)
			}
			got := PackedRowScores(blk, model.ScoreResiduals(), nil)
			ub := NewBlockKernel(model).Contributions(blk)
			for r, want := range ub.Scores(nil, nil) {
				if diff := math.Abs(got[r] - want); !(diff <= 1e-12*patients) {
					t.Fatalf("%s (adjusted: %v) row %d: %v off residuals, %v summing contributions",
						family, covariates != nil, r, got[r], want)
				}
			}
		}
	}
}

// writtenOrder is PackedRowScores' summation-order contract as a decoded loop
// that shares no code with the kernels: four lanes by patient index mod 4,
// ascending within a lane, combined (0+1)+(2+3).
func writtenOrder(packed []byte, r []float64) float64 {
	g := make([]data.Genotype, len(r))
	DecodeDosageGenotypes(packed, g)
	var lanes [4]float64
	for i, v := range g {
		lanes[i%4] += float64(v) * r[i]
	}
	return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

// TestPackedRowScoresSummationOrder pins the written order bit for bit, and
// the same bits wherever in whatever block the row sits: for every patient
// count around the four lanes and the partial byte, and row counts below,
// at and around the four-row groups, with missing calls, the scored rows a
// view into the middle of a larger block.
func TestPackedRowScoresSummationOrder(t *testing.T) {
	for _, patients := range []int{1, 2, 3, 4, 5, 63, 64, 1000, 1003} {
		for _, rows := range []int{1, 3, 4, 5, 8, 256} {
			ph, whole := kernelFixture(t, patients, rows+4, false)
			model, err := newLinear("gaussian", ph, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := model.ScoreResiduals()
			for i, src := 0, rng.New(uint64(patients*1000+rows)); i < len(whole.Packed); i++ {
				if src.Bernoulli(0.2) {
					s := 2 * src.Intn(4)
					whole.Packed[i] = whole.Packed[i]&^(3<<s) | 1<<s // a missing call
				}
			}
			rb := whole.RowBytes
			blk := data.GenoBlock{Patients: patients, RowBytes: rb,
				SNPs: whole.SNPs[2 : 2+rows], Counts: whole.Counts[2 : 2+rows], Packed: whole.Packed[2*rb:]}
			got := PackedRowScores(blk, r, nil)
			for row := range got {
				if want := writtenOrder(blk.Row(row), r); math.Float64bits(got[row]) != math.Float64bits(want) {
					t.Fatalf("%d patients, row %d of %d: %v, written order gives %v", patients, row, rows, got[row], want)
				}
				alone := data.NewGenoBlock(patients, 1)
				if err := alone.AppendRow(0, blk.DecodeRow(row, nil)); err != nil {
					t.Fatal(err)
				}
				if s := PackedRowScores(alone, r, nil); math.Float64bits(s[0]) != math.Float64bits(got[row]) {
					t.Fatalf("%d patients, row %d: %v alone in a block, %v as row %d of %d", patients, row, s[0], got[row], row, rows)
				}
			}
		}
	}
}

// fuzzResiduals are the residuals FuzzPackedRowScores mixes into raw bit
// patterns: both zeros, the smallest subnormals and a larger one, both
// infinities and NaN.
var fuzzResiduals = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030,
	math.Inf(1), math.Inf(-1), math.NaN()}

// FuzzPackedRowScores pins PackedRowScores to writtenOrder over arbitrary
// packed bytes — the missing code and the padding bits of a partial byte
// included — and residuals of any bit pattern: the same bits, or NaN both.
// The first two bytes pick patients and rows; the rest is read cyclically,
// as the block's packed bytes and then one selector byte a residual (below
// 0x40: a fuzzResiduals entry, else eight raw bytes from there on).
func FuzzPackedRowScores(f *testing.F) {
	f.Add([]byte{4, 5, 0x1b, 0xe4, 0x55, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		patients := panelPatients[int(raw[0])%len(panelPatients)]
		rows := int(raw[1]) % 10
		raw = raw[2:]
		at := 0
		next := func() byte { at++; return raw[(at-1)%len(raw)] }
		blk := data.GenoBlock{Patients: patients, RowBytes: data.BlockRowBytes(patients),
			SNPs: make([]int32, rows), Packed: make([]byte, rows*data.BlockRowBytes(patients))}
		for i := range blk.Packed {
			blk.Packed[i] = next()
		}
		r := make([]float64, patients)
		for i := range r {
			if sel := next(); sel < 0x40 {
				r[i] = fuzzResiduals[int(sel)%len(fuzzResiduals)]
				continue
			}
			var b [8]byte
			for j := range b {
				b[j] = next()
			}
			r[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		for row, got := range PackedRowScores(blk, r, nil) {
			want := writtenOrder(blk.Row(row), r)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%d patients, row %d of %d: %v (%#x), written order gives %v (%#x)",
					patients, row, rows, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// TestPackedRowScoresRejectsMalformedBlocks: a block whose packed bytes are
// shorter than its rows, or whose row stride is not BlockRowBytes(Patients) —
// what a corrupt spill frame could decode to — panics with a stats: message
// before any row is scored, instead of letting the kernel read past what the
// block holds or score the wrong bytes: PackedRowScores, and the panel kernel
// at width 8 (one tile) and 16 (a tile pair), which share its check.
func TestPackedRowScoresRejectsMalformedBlocks(t *testing.T) {
	const patients, rows = 1003, 9
	ph, good := kernelFixture(t, patients, rows, false)
	model, err := newLinear("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := model.ScoreResiduals()
	_, panel8 := panelFixture(8, patients, 0, 8, nil, 0, 0)
	_, panel16 := panelFixture(16, patients, 0, 16, nil, 0, 0)
	scorers := []struct {
		name  string
		width int
		score func(blk data.GenoBlock, out []float64)
	}{
		{"PackedRowScores", 1, func(blk data.GenoBlock, out []float64) { PackedRowScores(blk, r, out) }},
		{"panel width 8", 8, func(blk data.GenoBlock, out []float64) { NewPanelKernel(patients, 8, panel8).Scores(blk, out) }},
		{"panel width 16", 16, func(blk data.GenoBlock, out []float64) { NewPanelKernel(patients, 16, panel16).Scores(blk, out) }},
	}
	for _, tc := range []struct {
		name  string
		block func(b *data.GenoBlock)
	}{
		{"packed one byte short", func(b *data.GenoBlock) { b.Packed = b.Packed[:len(b.Packed)-1] }},
		{"packed a row short", func(b *data.GenoBlock) { b.Packed = b.Packed[:len(b.Packed)-b.RowBytes] }},
		{"no packed bytes", func(b *data.GenoBlock) { b.Packed = nil }},
		{"rows a byte narrow", func(b *data.GenoBlock) { b.RowBytes-- }},
		{"rows a byte wide", func(b *data.GenoBlock) { b.RowBytes++ }},
		{"zero-byte rows", func(b *data.GenoBlock) { b.RowBytes = 0 }},
	} {
		blk := good
		tc.block(&blk)
		for _, sc := range scorers {
			out := make([]float64, rows*sc.width)
			for i := range out {
				out[i] = -1
			}
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "stats: ") {
						t.Errorf("%s: %s panicked with %q, want a stats: message", tc.name, sc.name, msg)
					}
				}()
				sc.score(blk, out)
			}()
			for i, v := range out {
				if v != -1 {
					t.Errorf("%s: %s scored %d (%v) before the panic", tc.name, sc.name, i, v)
					break
				}
			}
		}
	}
}

// TestBlockKernelCoxAllocsFlatAcrossRows pins the Cox kernel's prefix-sum
// scratch to the kernel: allocations per block do not grow with its rows.
func TestBlockKernelCoxAllocsFlatAcrossRows(t *testing.T) {
	allocs := func(rows int) float64 {
		ph, blk := kernelFixture(nil, 64, rows, false)
		model, err := newCox(ph, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := NewBlockKernel(model)
		return testing.AllocsPerRun(20, func() { k.Contributions(blk) })
	}
	if few, many := allocs(2), allocs(64); few != many || few > 3 {
		t.Fatalf("Cox kernel allocates %v times for 2 rows, %v for 64; want equal and <= 3", few, many)
	}
}

// TestBlockKernelCoxVarianceAllocatesNothing pins Cox's variance prefix sums
// to the kernel's scratch: MarginalAsymptotic calls it once per SNP row.
func TestBlockKernelCoxVarianceAllocatesNothing(t *testing.T) {
	ph, blk := kernelFixture(t, 64, 3, false)
	model, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := NewBlockKernel(model)
	if allocs := testing.AllocsPerRun(20, func() { k.Variance(blk, 2) }); allocs != 0 {
		t.Fatalf("Cox kernel variance allocates %v times a row, want 0", allocs)
	}
}

// BenchmarkPackedRowScores prices the score-only kernel per genotype on one
// full block at perm_scan's shape (256 SNPs × 1000 patients, Cox residuals).
func BenchmarkPackedRowScores(b *testing.B) {
	const patients, rows = 1000, 256
	ph, blk := kernelFixture(nil, patients, rows, false)
	model, err := newCox(ph, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := model.ScoreResiduals()
	var scores []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores = PackedRowScores(blk, r, scores)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(patients*rows), "ns/genotype")
}
