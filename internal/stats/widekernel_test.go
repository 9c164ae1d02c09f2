package stats

import (
	"math"
	"strings"
	"sync"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rng"
)

// wideFixture builds a genotype block (with some missing calls) and a batch of
// phenotypes of the given family over the same cohort.
func wideFixture(t testing.TB, patients, rows, phenos int, binary bool) ([]Model, data.GenoBlock) {
	if t != nil {
		t.Helper()
	}
	r := rng.New(1234)
	blk := data.NewGenoBlock(patients, rows)
	g := make([]data.Genotype, patients)
	for j := 0; j < rows; j++ {
		for i := range g {
			if r.Bernoulli(0.05) {
				g[i] = data.MissingGenotype
			} else {
				g[i] = data.Genotype(r.Binomial(2, 0.3))
			}
		}
		if err := blk.AppendRow(j, g); err != nil {
			panic(err)
		}
	}
	return wideModels(r, patients, phenos, binary), blk
}

// wideModels draws a batch of phenotypes of the given family. A binary
// phenotype that came out single-class (possible on a handful of patients)
// gets its first outcome flipped, so every batch builds.
func wideModels(r *rng.RNG, patients, phenos int, binary bool) []Model {
	models := make([]Model, phenos)
	for p := range models {
		ph := data.NewPhenotype(patients)
		ones := 0
		for i := range ph.Y {
			if binary {
				if r.Bernoulli(0.3 + 0.4*float64(p%2)) {
					ph.Y[i] = 1
					ones++
				}
			} else {
				ph.Y[i] = r.Normal() * float64(p+1)
			}
		}
		family := "gaussian"
		if binary {
			family = "binomial"
			if ones == 0 || ones == patients {
				ph.Y[0] = 1 - ph.Y[0]
			}
		}
		m, err := NewModel(family, ph)
		if err != nil {
			panic(err)
		}
		models[p] = m
	}
	return models
}

// TestWideKernelMatchesPerPhenotypeBitwise is the parity pin of the all-pairs
// engine: for every (SNP, phenotype) pair the wide kernel's score must equal
// PackedRowScores on that phenotype's residuals — the score every marginal
// analysis reports — and its variance Model.Variance, bit for bit, for both
// factorised families, including rows with missing genotypes.
func TestWideKernelMatchesPerPhenotypeBitwise(t *testing.T) {
	const patients, rows, phenos = 41, 7, 5
	for _, binary := range []bool{false, true} {
		models, blk := wideFixture(t, patients, rows, phenos, binary)
		k, err := NewWideKernel(models)
		if err != nil {
			t.Fatal(err)
		}
		checkBlockBitwise(t, k, models, blk)
		if t.Failed() {
			t.Fatalf("binary=%v", binary)
		}
	}
}

// shapeBlock draws a block whose rows mix per-row allele frequencies
// ρ ~ U(0.01, 0.5) and 5 % missing calls with the degenerate rows the
// zero-skipping kernel must get right: all-0, all-2 and all-missing.
func shapeBlock(r *rng.RNG, patients, rows, firstSNP int) data.GenoBlock {
	blk := data.NewGenoBlock(patients, rows)
	g := make([]data.Genotype, patients)
	for j := 0; j < rows; j++ {
		rho := 0.01 + 0.49*r.Float64()
		for i := range g {
			switch {
			case j%5 == 1:
				g[i] = [...]data.Genotype{0, 2, data.MissingGenotype}[j/5%3]
			case r.Bernoulli(0.05):
				g[i] = data.MissingGenotype
			default:
				g[i] = data.Genotype(r.Binomial(2, rho))
			}
		}
		if err := blk.AppendRow(firstSNP+j, g); err != nil {
			panic(err)
		}
	}
	return blk
}

// checkBlockBitwise scores blk through k and requires every pair, in
// row-major visit order, to have PackedRowScores' score on the model's
// residuals and Model.Variance on the decoded row, bit for bit. Score on the
// decoded row, which adds in patient order, is a second check within 1e-12 of
// the terms' absolute sum.
func checkBlockBitwise(t *testing.T, k *WideKernel, models []Model, blk data.GenoBlock) {
	t.Helper()
	type cell struct {
		snp             int32
		pheno           int
		score, variance float64
	}
	var got []cell
	k.BlockStats(blk, func(snp int32, pheno int, score, variance float64) {
		got = append(got, cell{snp, pheno, score, variance})
	})
	if len(got) != blk.Rows()*len(models) {
		t.Errorf("visited %d pairs, want %d", len(got), blk.Rows()*len(models))
		return
	}
	scores := make([][]float64, len(models))
	for p, m := range models {
		scores[p] = PackedRowScores(blk, m.ScoreResiduals(), nil)
	}
	dec := make([]data.Genotype, blk.Patients)
	for r := 0; r < blk.Rows(); r++ {
		data.UnpackGenotypes(blk.Row(r), dec, codeScoring)
		for p, m := range models {
			c := got[r*len(models)+p]
			want := cell{blk.SNPs[r], p, scores[p][r], m.Variance(dec)}
			if c.snp != want.snp || c.pheno != want.pheno ||
				math.Float64bits(c.score) != math.Float64bits(want.score) ||
				math.Float64bits(c.variance) != math.Float64bits(want.variance) {
				t.Errorf("%d-row block, visit %d = %+v, per-phenotype %+v", blk.Rows(), r*len(models)+p, c, want)
				return
			}
			if loop := Score(m, dec); !scoreNear(c.score, loop, m, dec) {
				t.Errorf("%d-row block, visit %d: score %v, patient-order Score %v", blk.Rows(), r*len(models)+p, c.score, loop)
				return
			}
		}
	}
}

// scoreNear reports whether score is within 1e-12 of want relative to the
// absolute sum Σ_i |g_i·r_i| of the terms both add: two summation orders of
// the same terms differ by at most about n·2⁻⁵³ of that sum.
func scoreNear(score, want float64, m Model, g []data.Genotype) bool {
	var terms float64
	for i, r := range m.ScoreResiduals() {
		terms += math.Abs(float64(g[i]) * r)
	}
	return math.Abs(score-want) <= 1e-12*terms
}

// TestWideKernelShapeMatrix walks the tile and scratch edges: phenotype counts
// around the tile width (a lone phenotype, one short of a tile, exact tiles,
// one over), patient counts around the 4-per-byte packing, and one kernel
// scoring blocks of 1, 255, 257 and 3 rows in that order, so growing and then
// reusing the scratch cannot leak an earlier block's scores. The 1001-patient
// cohort, where the per-phenotype oracle is the whole cost, runs one, two and
// nine tiles only; the small cohorts cover every tile edge.
func TestWideKernelShapeMatrix(t *testing.T) {
	for _, binary := range []bool{false, true} {
		for _, patients := range []int{1, 3, 4, 5, 1001} {
			if binary && patients == 1 {
				continue // a binomial phenotype needs both classes
			}
			for _, phenos := range []int{1, 7, 8, 9, 64, 65} {
				if patients == 1001 && phenos != 1 && phenos != 9 && phenos != 65 {
					continue
				}
				r := rng.New(uint64(1000*patients + phenos))
				models := wideModels(r, patients, phenos, binary)
				k, err := NewWideKernel(models)
				if err != nil {
					t.Fatalf("binary=%v patients=%d phenos=%d: %v", binary, patients, phenos, err)
				}
				snp := 0
				for _, rows := range []int{1, 255, 257, 3} {
					checkBlockBitwise(t, k, models, shapeBlock(r, patients, rows, snp))
					snp += rows
				}
				if t.Failed() {
					t.Fatalf("binary=%v patients=%d phenos=%d", binary, patients, phenos)
				}
			}
		}
	}
}

// TestWideKernelBlockRowsConcurrently runs BlockStats calls on one kernel
// and different blocks at once, as a job's fold tasks do; under -race this
// pins the table as read-only and each call's scratch as its own.
func TestWideKernelBlockRowsConcurrently(t *testing.T) {
	const patients, phenos = 37, 13
	r := rng.New(99)
	models := wideModels(r, patients, phenos, false)
	k, err := NewWideKernel(models)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []data.GenoBlock{shapeBlock(r, patients, 40, 0), shapeBlock(r, patients, 60, 40)}
	var wg sync.WaitGroup
	for _, blk := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				checkBlockBitwise(t, k, models, blk)
			}
		}()
	}
	wg.Wait()
}

func TestWideKernelRejectsBadBatches(t *testing.T) {
	if _, err := NewWideKernel(nil); err == nil {
		t.Fatal("accepted an empty batch")
	}
	phA, phB := data.NewPhenotype(4), data.NewPhenotype(6)
	phA.Y = []float64{1, 2, 3, 4}
	phB.Y = []float64{1, 2, 3, 4, 5, 6}
	mA, err := newLinear("gaussian", phA, nil)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := newLinear("gaussian", phB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWideKernel([]Model{mA, mB}); err == nil {
		t.Fatal("accepted mismatched patient counts")
	}
	// Finite outcomes whose sum overflows: the mean is +Inf and every residual
	// -Inf, for which skipping a zero-dosage term (0·Inf = NaN) is not exact.
	phHuge := data.NewPhenotype(4)
	phHuge.Y = []float64{1e308, 1e308, 1e308, 1e308}
	mHuge, err := newLinear("gaussian", phHuge, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWideKernel([]Model{mA, mHuge}); err == nil || !strings.Contains(err.Error(), "phenotype 1 ") {
		t.Fatalf("non-finite residuals: error %v, want one naming phenotype 1", err)
	}
	// Outcomes of ±1e200 centre to finite residuals whose squares overflow the
	// variance scale.
	phWide := data.NewPhenotype(4)
	phWide.Y = []float64{1e200, -1e200, 1e200, -1e200}
	mWide, err := newLinear("gaussian", phWide, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWideKernel([]Model{mA, mA, mWide}); err == nil || !strings.Contains(err.Error(), "phenotype 2 ") {
		t.Fatalf("non-finite variance scale: error %v, want one naming phenotype 2", err)
	}
	// Outcomes of 1e155 × (1, 0.9, 1, 0.9) centre to finite residuals and a
	// finite scale, but 2·Σ|r| = 4e154 squares past float64.
	phScore := data.NewPhenotype(4)
	phScore.Y = []float64{1e155, 0.9e155, 1e155, 0.9e155}
	mScore, err := newLinear("gaussian", phScore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWideKernel([]Model{mA, mScore}); err == nil || !strings.Contains(err.Error(), "phenotype 1 has worst-case score") {
		t.Fatalf("overflowing worst-case score²: error %v, want one naming phenotype 1", err)
	}
	// A variance scale that is finite but whose bound, scale·n, is not.
	hugeScale := *mA
	hugeScale.scale = math.MaxFloat64 / 2
	if _, err := NewWideKernel([]Model{&hugeScale}); err == nil || !strings.Contains(err.Error(), "phenotype 0 has variance bound") {
		t.Fatalf("overflowing variance bound: error %v, want one naming phenotype 0", err)
	}
	for i := range phA.Event {
		phA.Event[i] = 1
	}
	cox, err := newCox(phA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWideKernel([]Model{cox}); err == nil {
		t.Fatal("accepted a Cox model, which has no factorised variance")
	}
	adjusted, err := newLinear("gaussian", phA, [][]float64{{0.5}, {-1}, {2}, {0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWideKernel([]Model{mA, adjusted}); err == nil || !strings.Contains(err.Error(), `"gaussian" does not provide one`) {
		t.Fatalf("covariate-adjusted gaussian: error %v, want the factorised-variance refusal", err)
	}
}

// BenchmarkWideKernel vs BenchmarkPerPhenotypeLoop: the all-pairs cross's
// decode-amortisation claim on the shared fixture (fixed 0.3 MAF), and the
// kernel at the eqtl_wide benchmark's shape — one full block of 1000 patients
// × 256 rows against 256 phenotypes, per-row MAF ~ U(0.01, 0.5) as gen draws
// it. Run with -benchmem.
func BenchmarkWideKernel(b *testing.B) {
	b.Run("fixture", func(b *testing.B) {
		models, blk := wideFixture(nil, 1000, 64, 32, false)
		benchWideKernel(b, models, blk)
	})
	b.Run("eqtl_wide", func(b *testing.B) {
		const patients, rows, phenos = 1000, 256, 256
		blk := gen.GenoBlocks(gen.Config{Patients: patients, SNPs: rows, SNPSets: 1}, rng.New(1), rows)[0]
		expr := gen.ExpressionMatrix(gen.Config{Patients: patients}, rng.New(2), phenos)
		models := make([]Model, phenos)
		for p := range models {
			m, err := newLinear("gaussian", expr.Phenotype(p), nil)
			if err != nil {
				b.Fatal(err)
			}
			models[p] = m
		}
		benchWideKernel(b, models, blk)
	})
}

func benchWideKernel(b *testing.B, models []Model, blk data.GenoBlock) {
	k, err := NewWideKernel(models)
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	visit := func(snp int32, pheno int, score, variance float64) { sink += score + variance }
	k.BlockStats(blk, visit) // fills the scratch pool, so the timed calls allocate nothing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BlockStats(blk, visit)
	}
	pairs := float64(b.N) * float64(blk.Rows()*len(models))
	b.ReportMetric(pairs/b.Elapsed().Seconds()/1e6, "Mpairs/s")
	_ = sink
}

func BenchmarkPerPhenotypeLoop(b *testing.B) {
	models, blk := wideFixture(nil, 1000, 64, 32, false)
	dec := make([]data.Genotype, 1000)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < blk.Rows(); r++ {
			data.UnpackGenotypes(blk.Row(r), dec, codeScoring)
			for _, m := range models {
				sink += Score(m, dec) + m.Variance(dec)
			}
		}
	}
	_ = sink
}

// FuzzWideKernelRows pins BlockRows to per-phenotype PackedRowScores and
// Variance under math.Float64bits on arbitrary packed bytes: all four codes,
// every byte value and whatever sits in a last byte's padding codes. The first four
// bytes pick 1–70 patients, 1–9 rows, 1–17 phenotypes and the family and
// phenotype seed; the rest fills the rows cyclically (all-zero bytes, every
// patient homozygous 2, when there is none). The block's Counts column is
// filled with junk the kernel must not read.
func FuzzWideKernelRows(f *testing.F) {
	f.Add([]byte{69, 8, 16, 0, 0x00})
	f.Add([]byte{4, 3, 8, 1, 0x55, 0xaa, 0xff, 0x1b})
	f.Add([]byte{0, 0, 0, 0, 0xe4})
	f.Add([]byte{2, 4, 9, 3, 0x00, 0x01, 0x02, 0x03, 0x7f, 0x80, 0xfe})
	// 49 patients, 4 rows, 15 Gaussian phenotypes: a fused multiply-add in
	// Variance's sum of squares moves the first pair's last bit.
	f.Add([]byte("00000"))
	seq := []byte{33, 8, 7, 5}
	for v := range 256 {
		seq = append(seq, byte(v))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		patients, rows, phenos := 1+int(raw[0])%70, 1+int(raw[1])%9, 1+int(raw[2])%17
		binary := raw[3]&1 == 1 && patients > 1 // a binomial phenotype needs both classes
		packed := raw[4:]
		blk := data.GenoBlock{
			Patients: patients,
			RowBytes: data.BlockRowBytes(patients),
			SNPs:     make([]int32, rows),
			Counts:   make([]int32, rows),
			Packed:   make([]byte, rows*data.BlockRowBytes(patients)),
		}
		for r := range blk.SNPs {
			blk.SNPs[r], blk.Counts[r] = int32(3*r+1), int32(-7*r-1)
		}
		if len(packed) > 0 {
			for i := range blk.Packed {
				blk.Packed[i] = packed[i%len(packed)]
			}
		}
		models := wideModels(rng.New(uint64(raw[3])), patients, phenos, binary)
		k, err := NewWideKernel(models)
		if err != nil {
			t.Fatal(err)
		}
		checkBlockBitwise(t, k, models, blk)
	})
}
