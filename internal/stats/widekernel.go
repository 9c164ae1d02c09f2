// The wide multi-phenotype kernel of the all-pairs association engine. The
// single-phenotype BlockKernel fuses one residual vector with the 2-bit
// dosage decode; scoring M phenotypes that way decodes every genotype block M
// times and rescans it twice more per phenotype for the variance. The wide
// kernel instead reads each SNP row's packed bytes once for the SNP's
// genotype moments (sum, mean, centered sum of squares) and the list of its
// non-zero patients, and scores the whole phenotype batch off that list. The
// variance factorisation makes the amortisation exact: for the unadjusted
// Gaussian and Binomial families (the linear model with unit variance
// weights)
//
//	Var(U_j) = scale_p · Σ_i (G_ij − Ḡ_j)²
//
// where scale_p (σ̂² or Ȳ(1−Ȳ)) is SNP-invariant and the sum is
// phenotype-invariant, so per (SNP, phenotype) pair only the score remains.
//
// The score U_jp = Σ_i G_ij · r_p[i] has G_ij ∈ {0, 1, 2}, and most terms are
// exact zeros at realistic allele frequencies. So the kernel never multiplies:
// it keeps a table of 1·r_p[i] and 2·r_p[i], phenotype-tiled and
// patient-major, turns each row into the list of table cells of its non-zero
// patients, and adds those cells into one accumulator per phenotype — one
// list walk scores wideTile phenotypes. The walk takes two rows' lists per
// call (sumCellPairs): on an amd64 host with AVX2 that is kernel_amd64.s's
// cellPairs, four ymm registers whose sixteen columns are independent chains;
// elsewhere it is sumCells, the same adds one list at a time in Go.
//
// Around the walk no genotype is decoded: a row's dosage sum is an exact
// integer count from a per-byte table, its cell list comes from a per-byte
// table of cell offsets (four slots written per byte, the cursor advanced by
// the byte's count), and its centered sum of squares, the one loop left that
// adds a term per patient, adds a per-row table of four rounded squares (one
// per 2-bit code) in patient order, four rows' add chains interleaved.
//
// The kernel hands its consumer one SNP row at a time (BlockRows): the row's
// scores against the whole batch and their variances, so a consumer that
// needs only a cut-off test per pair — the all-pairs engine's χ² = s²/v
// against its report's edges — pays no call per pair. BlockStats is the
// per-pair view of the same walk.
//
// Summation-order contract. score(j, p) = Σ over patients in ascending index
// of dosage·residual; exact-zero terms may be omitted; variance adds as in
// the linear model's Variance, each term float64(d·d) rounded before its add
// (so a table of the four rounded squares adds the same bits), and the
// dosage sum, an integer below 2⁵³, is exact in any order. Omitting a zero
// term is exact because residuals are finite (NewWideKernel rejects any that
// are not), so the term is ±0, and a running sum that starts at +0 is
// unchanged by adding ±0; 1·r and 2·r are exact. Scores and variances
// therefore equal per-phenotype Score/Variance calls bit for bit.

package stats

import (
	"fmt"
	"math"

	"sparkscore/internal/data"
)

// byteCells is the wide kernel's per-byte table. For a packed byte of four
// patients l = 0..3 it holds n, how many have a non-zero scoring dosage; dos,
// the sum of their dosages; and off[:n], the cell offsets 2l+c−1 of those
// patients (c their dosage class) in ascending l. off[n:] is padding: the
// compaction writes all four slots and advances by n, so the next byte
// overwrites them.
var byteCells = func() (t [256]struct {
	off    [4]uint32
	n, dos uint32
}) {
	for v := range t {
		e := &t[v]
		for l := range 4 {
			if c := dosageClass[v>>uint(2*l)&3]; c != 0 {
				e.off[e.n] = uint32(2*l) + c - 1
				e.n++
				e.dos += c
			}
		}
	}
	return t
}()

// wideTile is the number of phenotypes scored per walk of a row's cell list:
// one float64 accumulator each, a 64-byte cell — two ymm registers in the
// amd64 walk.
const wideTile = 8

// wideCell is one table entry: c·r_p[i] for the wideTile phenotypes p of a
// tile, at one patient i and dosage class c.
type wideCell [wideTile]float64

// wideTable is the immutable half of a wide kernel, shared read-only by every
// kernel forked from it. Tile t covers phenotypes [t·wideTile, (t+1)·wideTile)
// and is cells[t·2n : (t+1)·2n]; within it cell 2i+c−1 belongs to patient i
// and dosage class c ∈ {1, 2}. A last partial tile is zero-padded.
type wideTable struct {
	patients int
	scales   []float64 // per-phenotype variance factors; len is the batch width
	cells    []wideCell
}

// WideKernel scores every (SNP, phenotype) pair of a genotype block against a
// batch of phenotype models in one decode pass per SNP. The table built by
// NewWideKernel is immutable; the scratch beside it makes a kernel
// single-goroutine, so concurrent tasks each Fork their own.
type WideKernel struct {
	table *wideTable

	means  []float64 // per-row mean dosage of the current block
	ss     []float64 // per-row centered sum of squares of the current block
	cells  []uint32  // the rows' cell lists, concatenated
	ends   []int     // row r's list is cells[ends[r-1]:ends[r]]
	scores []float64 // rows × phenotypes, row-major
	vars   []float64 // the current row's variance per phenotype
}

// NewWideKernel builds a wide kernel over the batch. Every model must share
// the patient count, be an unadjusted Gaussian or Binomial model — a linear
// model whose variance weights are all ones — and have finite residuals and
// variance scale. Its worst cases must be finite too: a score
// is Σ dosage·r with dosages in [0, 2], so |score| ≤ 2·Σ|r| and score² ≤
// (2·Σ|r|)²; a variance is scale·Σ(G−Ḡ)², and a dosage in [0, 2] spreads at
// most 1 per patient, so variance ≤ scale·n. A phenotype past either bound
// could score a pair whose s² overflows to +Inf and report p = 0 for a χ²
// that does not depend on the phenotype's scale.
func NewWideKernel(models []Model) (*WideKernel, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("stats: wide kernel over an empty phenotype batch")
	}
	n := models[0].Patients()
	tiles := (len(models) + wideTile - 1) / wideTile
	t := &wideTable{
		patients: n,
		scales:   make([]float64, len(models)),
		cells:    make([]wideCell, tiles*2*n),
	}
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
		t.scales[p] = scale
		tile, lane := t.cells[p/wideTile*2*n:], p%wideTile
		var sumAbs float64
		for i, res := range lin.resid {
			// 2·res finite implies res finite; both go into the table.
			if d := 2 * res; math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("stats: wide kernel phenotype %d has residual %v for patient %d", p, res, i)
			}
			tile[2*i][lane] = res
			tile[2*i+1][lane] = 2 * res
			sumAbs += math.Abs(res)
		}
		if b := 2 * sumAbs; math.IsInf(b*b, 0) {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has worst-case score 2·Σ|r| = %v, whose square overflows", p, b)
		}
		if v := scale * float64(n); math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has variance bound scale·n = %v", p, v)
		}
	}
	return &WideKernel{table: t}, nil
}

// Fork returns a kernel that shares k's table and owns fresh scratch, so the
// two may run BlockRows concurrently.
func (k *WideKernel) Fork() *WideKernel { return &WideKernel{table: k.table} }

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
	t := k.table
	n, m, rows := t.patients, len(t.scales), blk.Rows()
	if blk.Patients != n {
		panic(fmt.Sprintf("stats: block for %d patients, wide kernel for %d", blk.Patients, n))
	}
	k.means, k.ss, k.ends = sized(k.means, rows), sized(k.ss, rows), sized(k.ends, rows)
	k.cells, k.scores, k.vars = sized(k.cells, rows*n), sized(k.scores, rows*m), sized(k.vars, m)
	means, ss, ends, cells, scores, vars := k.means, k.ss, k.ends, k.cells, k.scores, k.vars

	// Per row: the dosage sum and the cell list, a packed byte at a time.
	// Every partial sum of dosages is an integer below 2⁵³, so float64 of the
	// exact count is the linear model's running float sum bit for bit. Whole
	// byte j of row r writes all four of its slots from w ≤ r·n + 4j, so they
	// end before (r+1)·n and the lists need no slack; only the byte's non-zero
	// patients advance w. The bytes are the only input read: a block's Counts
	// column is not consulted.
	full := n >> 2
	w := 0
	for r := 0; r < rows; r++ {
		packed := blk.Row(r)
		sum := 0
		for j, v := range packed[:full] {
			e := &byteCells[v]
			at := uint32(8 * j)
			c := (*[4]uint32)(cells[w:])
			c[0], c[1], c[2], c[3] = at+e.off[0], at+e.off[1], at+e.off[2], at+e.off[3]
			w += int(e.n)
			sum += int(e.dos)
		}
		for i := full << 2; i < n; i++ {
			c := dosageClass[packed[full]>>uint(2*(i&3))&3]
			cells[w] = uint32(2*i) + c - 1
			w += int((c + 1) >> 1)
			sum += int(c)
		}
		ends[r] = w
		means[r] = float64(sum) / float64(n)
	}
	rowSquares(blk, means, ss)

	// Tiles outermost, so one tile's 2n cells stay cache-resident across all
	// rows of the block; rows r and r+1 share a walk (a last odd row pairs
	// with an empty list), and each list adds in ascending patient order.
	for lo := 0; lo < m; lo += wideTile {
		tile := t.cells[lo/wideTile*2*n:][:2*n]
		width := min(wideTile, m-lo)
		start := 0
		for r := 0; r < rows; r += 2 {
			mid, end := ends[r], ends[min(r+1, rows-1)]
			var sums [2]wideCell
			sumCellPairs(tile, cells[start:mid], cells[mid:end], &sums)
			start = end
			for j, s := range sums[:min(2, rows-r)] {
				copy(scores[(r+j)*m+lo:], s[:width])
			}
		}
	}

	for r := 0; r < rows; r++ {
		for p, scale := range t.scales {
			vars[p] = scale * ss[r]
		}
		row(blk.SNPs[r], scores[r*m:][:m], vars)
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

// sumCells adds the listed cells of a tile into sum, in list order from +0:
// the walk the wide kernel and the panel kernel share, run through
// sumCellPairs. It is that walk off amd64 and the oracle of the amd64 one.
func sumCells(tile []wideCell, list []uint32, sum *wideCell) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	// Bottom-tested, so each accumulator's only use inside the loop is its own
	// add and the compiler folds the table load into it; a top-tested loop
	// keeps eight loaded values live beside the eight sums, one more register
	// than amd64 has, and spills a sum.
	if len(list) > 0 {
		for i := 0; ; {
			e := &tile[list[i]]
			a0 += e[0]
			a1 += e[1]
			a2 += e[2]
			a3 += e[3]
			a4 += e[4]
			a5 += e[5]
			a6 += e[6]
			a7 += e[7]
			if i++; i == len(list) {
				break
			}
		}
	}
	*sum = wideCell{a0, a1, a2, a3, a4, a5, a6, a7}
}

// sized returns buf resliced to n elements, reallocated only when it is too
// small; contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
