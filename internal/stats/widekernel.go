// The wide multi-phenotype kernel of the all-pairs association engine: the
// panel kernel over a batch of phenotypes' score residuals, plus each SNP
// row's genotype moments. Scoring M phenotypes one PackedRowScores call at a
// time would decode every genotype block M times and rescan it twice more per
// phenotype for the variance. The wide kernel instead hands the n × M
// patient-major panel of the batch's residuals to a PanelKernel — one
// compaction of each row's non-zero patients into cell lists, one walk of
// those lists per tile of panelTile phenotypes — and reads each row's packed
// bytes once more for its mean and centered sum of squares. The variance
// factorisation makes the amortisation exact: for the unadjusted Gaussian and
// Binomial families (the linear model with unit variance weights)
//
//	Var(U_j) = scale_p · Σ_i (G_ij − Ḡ_j)²
//
// where scale_p (σ̂² or Ȳ(1−Ȳ)) is SNP-invariant and the sum is
// phenotype-invariant, so per (SNP, phenotype) pair only the score remains.
//
// Scores are the panel kernel's, so score (j, p) is PackedRowScores(blk,
// r_p)[j] bit for bit — the score every marginal analysis reports — and a
// batch of one phenotype is PackedRowScores itself. Variances add as in the
// linear model's Variance, each term float64(d·d) rounded before its add (so
// a table of the four rounded squares adds the same bits), and the dosage
// sum, an integer below 2⁵³, is exact in any order: variances are
// Model.Variance bit for bit.
//
// The kernel hands its consumer one SNP row at a time (BlockRows): the row's
// scores against the whole batch and their variances, so a consumer that
// needs only a cut-off test per pair — the all-pairs engine's χ² = s²/v
// against its report's edges — pays no call per pair. BlockStats is the
// per-pair view of the same rows.

package stats

import (
	"fmt"
	"math"

	"sparkscore/internal/data"
)

// byteDosage[v] is the summed scoring dosage of packed byte v's four patients.
var byteDosage = func() (t [256]uint8) {
	for v := range t {
		for l := range 4 {
			t[v] += uint8(dosageClass[v>>uint(2*l)&3])
		}
	}
	return t
}()

// WideKernel scores every (SNP, phenotype) pair of a genotype block against a
// batch of phenotype models in one pass per SNP. The panel kernel built by
// NewWideKernel is immutable; the scratch beside it makes a kernel
// single-goroutine, so concurrent tasks each Fork their own.
type WideKernel struct {
	panel  *PanelKernel
	scales []float64 // per-phenotype variance factors; len is the batch width

	means  []float64 // per-row mean dosage of the current block
	ss     []float64 // per-row centered sum of squares of the current block
	scores []float64 // rows × phenotypes, row-major
	vars   []float64 // the current row's variance per phenotype
}

// NewWideKernel builds a wide kernel over the batch. Every model must share
// the patient count, be an unadjusted Gaussian or Binomial model — a linear
// model whose variance weights are all ones — and have finite residuals,
// finite doubled residuals and a finite variance scale, which is the panel
// kernel's contract. Its worst cases must be finite too: a score
// is Σ dosage·r with dosages in [0, 2], so |score| ≤ 2·Σ|r| and score² ≤
// (2·Σ|r|)²; a variance is scale·Σ(G−Ḡ)², and a dosage in [0, 2] spreads at
// most 1 per patient, so variance ≤ scale·n. A phenotype past either bound
// could score a pair whose s² overflows to +Inf and report p = 0 for a χ²
// that does not depend on the phenotype's scale.
func NewWideKernel(models []Model) (*WideKernel, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("stats: wide kernel over an empty phenotype batch")
	}
	n, width := models[0].Patients(), len(models)
	scales, panel := make([]float64, width), make([]float64, n*width)
	for p, m := range models {
		if m.Patients() != n {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has %d patients, batch has %d",
				p, m.Patients(), n)
		}
		lin, ok := m.(*linear)
		if !ok || lin.v != nil {
			return nil, fmt.Errorf("stats: wide kernel needs a factorised variance; %q does not provide one", m.Name())
		}
		scale := lin.scale
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has variance scale %v", p, scale)
		}
		scales[p] = scale
		var sumAbs float64
		for i, res := range lin.resid {
			// 2·res finite implies res finite; the panel kernel's table holds both.
			if d := 2 * res; math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("stats: wide kernel phenotype %d has residual %v for patient %d", p, res, i)
			}
			panel[i*width+p] = res
			sumAbs += math.Abs(res)
		}
		if b := 2 * sumAbs; math.IsInf(b*b, 0) {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has worst-case score 2·Σ|r| = %v, whose square overflows", p, b)
		}
		if v := scale * float64(n); math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has variance bound scale·n = %v", p, v)
		}
	}
	return &WideKernel{panel: NewPanelKernel(n, width, panel), scales: scales}, nil
}

// Fork returns a kernel that shares k's panel kernel's table and owns fresh
// scratch, so the two may run BlockRows concurrently.
func (k *WideKernel) Fork() *WideKernel {
	return &WideKernel{panel: k.panel.Fork(), scales: k.scales}
}

// BlockStats visits every (SNP, phenotype) pair of the block in row-major
// order (all phenotypes of row 0, then row 1, ...), passing the marginal
// score and its null variance: BlockRows, one call per pair.
func (k *WideKernel) BlockStats(blk data.GenoBlock, visit func(snp int32, pheno int, score, variance float64)) {
	k.BlockRows(blk, func(snp int32, scores, variances []float64) {
		for p, s := range scores {
			visit(snp, p, s, variances[p])
		}
	})
}

// BlockRows visits the block's SNP rows in order, one call per row: the SNP
// id, scores[p] — the marginal score against phenotype p of the batch — and
// variances[p] = scale_p · Σ_i (G_ij − Ḡ_j)², its null variance. Both slices
// have one entry per phenotype and are the kernel's scratch, overwritten by
// the next row: a consumer that keeps a value copies it.
func (k *WideKernel) BlockRows(blk data.GenoBlock, row func(snp int32, scores, variances []float64)) {
	m, rows := len(k.scales), blk.Rows()
	k.scores = k.panel.Scores(blk, k.scores)
	k.means, k.ss, k.vars = sized(k.means, rows), sized(k.ss, rows), sized(k.vars, m)
	rowMeans(blk, k.means)
	rowSquares(blk, k.means, k.ss)
	for r := 0; r < rows; r++ {
		for p, scale := range k.scales {
			k.vars[p] = scale * k.ss[r]
		}
		row(blk.SNPs[r], k.scores[r*m:][:m], k.vars)
	}
}

// rowMeans sets means[r] to row r's mean scoring dosage, off the packed bytes
// alone: the block's Counts column is not consulted. Every partial sum of
// dosages is an integer below 2⁵³, so float64 of the exact count is the linear
// model's running float sum bit for bit.
func rowMeans(blk data.GenoBlock, means []float64) {
	n, full := blk.Patients, blk.Patients>>2
	for r := range means {
		packed := blk.Row(r)
		sum := 0
		for _, v := range packed[:full] {
			sum += int(byteDosage[v])
		}
		for l := range n & 3 { // the final, partial byte
			sum += int(dosageClass[packed[full]>>uint(2*l)&3])
		}
		means[r] = float64(sum) / float64(n)
	}
}

// rowSquares sets ss[r] to row r's centered sum of squares Σ_i (G_i − Ḡ)²,
// the adds of the linear model's Variance under unit weights: the patients in
// ascending order, each term float64(d·d) with d = dosage − means[r]. A row
// has four distinct terms, one per 2-bit code, so each is rounded once into a
// per-row table and the loop only adds. Four rows run interleaved, so each
// chain's add latency hides behind the other three; the rows mod 4 run
// alone.
func rowSquares(blk data.GenoBlock, means, ss []float64) {
	rows, n := blk.Rows(), blk.Patients
	full := n >> 2
	squares := func(r int) (q [4]float64) {
		for code, dos := range codeDosage {
			d := dos - means[r]
			q[code] = float64(d * d)
		}
		return q
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		q0, q1, q2, q3 := squares(r), squares(r+1), squares(r+2), squares(r+3)
		b0 := blk.Row(r)[:full]
		b1, b2, b3 := blk.Row(r + 1)[:len(b0)], blk.Row(r + 2)[:len(b0)], blk.Row(r + 3)[:len(b0)]
		var s0, s1, s2, s3 float64
		for j, v0 := range b0 {
			v1, v2, v3 := b1[j], b2[j], b3[j]
			s0 += q0[v0&3]
			s1 += q1[v1&3]
			s2 += q2[v2&3]
			s3 += q3[v3&3]
			s0 += q0[v0>>2&3]
			s1 += q1[v1>>2&3]
			s2 += q2[v2>>2&3]
			s3 += q3[v3>>2&3]
			s0 += q0[v0>>4&3]
			s1 += q1[v1>>4&3]
			s2 += q2[v2>>4&3]
			s3 += q3[v3>>4&3]
			s0 += q0[v0>>6]
			s1 += q1[v1>>6]
			s2 += q2[v2>>6]
			s3 += q3[v3>>6]
		}
		ss[r], ss[r+1], ss[r+2], ss[r+3] = s0, s1, s2, s3
		if full<<2 < n {
			for l, q := range [4]*[4]float64{&q0, &q1, &q2, &q3} {
				ss[r+l] = tailSquares(q, blk.Row(r + l)[full], n-full<<2, ss[r+l])
			}
		}
	}
	for ; r < rows; r++ {
		q := squares(r)
		var s float64
		packed := blk.Row(r)
		for _, v := range packed[:full] {
			s += q[v&3]
			s += q[v>>2&3]
			s += q[v>>4&3]
			s += q[v>>6]
		}
		if full<<2 < n {
			s = tailSquares(&q, packed[full], n-full<<2, s)
		}
		ss[r] = s
	}
}

// tailSquares continues a row's sum of squares over the first k < 4 patients
// of its partial last byte v; the byte's padding codes are not read.
func tailSquares(q *[4]float64, v byte, k int, s float64) float64 {
	for l := range k {
		s += q[v>>uint(2*l)&3]
	}
	return s
}
