// Blocked score kernels over packed genotype blocks. Every resampling pass
// needs only marginal scores, and those are linear in the genotypes: G · r for
// the model's score residuals (Model.ScoreResiduals into PackedRowScores: the
// observed score, a permutation replicate) and G · R̃ for a residual panel —
// a batch of Lin's Monte Carlo weight draws (Model.PanelResiduals) or a batch
// of phenotypes' residuals (WideKernel, the all-pairs cross) — into
// PanelKernel, both straight off the 2-bit bytes in one written summation
// order. That order is four lanes, which on an amd64 host with AVX2 are one ymm
// register: kernel_amd64.s scores four rows per call, and packedRowScore — the
// same order in Go — scores the rest, and every row on other hosts; the panel
// kernel's rows become cell lists 32 patients a step in the same file's
// compactChunks, or in compactBytes in Go, and the lists are walked two per
// call over two tiles by its tilePairs (AVX-512F), over one by its cellPairs
// (AVX2), or one list and tile at a time by sumCells in Go. Every score an analysis reports,
// the asymptotic tests' included, is one of these. The per-patient terms — a
// block at a time into a UBlock, bit for bit Model.Contributions per row
// (BlockKernel.Contributions) — serve only the asymptotic set tests' Liu
// moments, which need the contributions themselves, and the arithmetic of the
// Reference* oracles.

package stats

import (
	"fmt"
	"math"
	"sync"

	"sparkscore/internal/data"
)

// codeDosage maps each 2-bit PLINK-BED code to its scoring dosage; missing
// (code 01) scores as dosage zero, the usual missing-as-reference rule.
var codeDosage = [4]float64{2, 0, 1, 0}

// codeScoring maps each 2-bit code to its scoring genotype (missing -> 0),
// the domain the Model interface accepts.
var codeScoring = [4]data.Genotype{2, 0, 1, 0}

// DecodeDosageGenotypes unpacks 2-bit codes into scoring genotypes
// (missing -> 0); len(dst) genotypes are read from packed.
func DecodeDosageGenotypes(packed []byte, dst []data.Genotype) {
	n := len(dst)
	for i := 0; i+4 <= n; i += 4 {
		v := packed[i>>2]
		dst[i] = codeScoring[v&3]
		dst[i+1] = codeScoring[(v>>2)&3]
		dst[i+2] = codeScoring[(v>>4)&3]
		dst[i+3] = codeScoring[v>>6]
	}
	for i := n &^ 3; i < n; i++ {
		dst[i] = codeScoring[(packed[i>>2]>>uint((i&3)*2))&3]
	}
}

// UBlock holds the per-patient score contributions of a block of SNPs,
// row-major in one flat allocation: row r is U[r*Patients:(r+1)*Patients],
// the contributions of SNP SNPs[r] — the paper's RDD U, blocked, at 8 bytes
// per (SNP, patient) where the packed block it came from holds 2 bits.
type UBlock struct {
	Patients int
	SNPs     []int32
	U        []float64
}

// Rows returns the number of SNP rows in the block.
func (b *UBlock) Rows() int { return len(b.SNPs) }

// Row returns the contribution vector of row r.
func (b *UBlock) Row(r int) []float64 {
	return b.U[r*b.Patients : (r+1)*b.Patients]
}

// ApproxBytes estimates the block's resident size for cache accounting.
func (b UBlock) ApproxBytes() int64 {
	return 8*int64(len(b.U)) + 4*int64(len(b.SNPs)) + 96
}

// Scores computes MonteCarloScore(row, z) of every row into out (grown as
// needed); a nil z is the plain row sum, the observed U_j. Its callers are
// bench/layers.go's layer replay and the tests that check a kernel against
// the Reference* oracles' arithmetic; no analysis path calls it.
func (b *UBlock) Scores(z, out []float64) []float64 {
	out = sized(out, b.Rows())
	for r := range out {
		if z != nil {
			out[r] = MonteCarloScore(b.Row(r), z)
			continue
		}
		out[r] = 0
		for _, v := range b.Row(r) {
			out[r] += v
		}
	}
	return out
}

// residualHeadroom is how far below overflow CheckResiduals wants every
// magnitude: a replicate scales residuals by |Z| < 16, Cox's hazard sums a
// cohort of them, and the class table doubles the result.
const residualHeadroom = 1 << 64

// CheckResiduals fails closed on a null model the packed kernels cannot score
// exactly. Leaving out a zero-dosage term is exact only while the residual it
// would have multiplied is finite (0 · Inf is NaN), in every replicate's R̃ as
// well as in r — so r and, for Cox, the risk weights w_l (all ones
// unadjusted) and the event patients' 1/den_i that R̃ is built from must be
// finite with residualHeadroom to spare. The error names the first offending patient.
func CheckResiduals(m Model) error {
	bad := func(v float64) bool { return !(math.Abs(v) <= math.MaxFloat64/residualHeadroom) }
	if c, ok := m.(*Cox); ok {
		for i, w := range c.w {
			if bad(w) {
				return fmt.Errorf("stats: cox risk weight %v for patient %d", w, i)
			}
		}
		for i, den := range c.riskDen {
			if c.ph.Event[i] != 0 && bad(1/den) {
				return fmt.Errorf("stats: cox risk-set weight sum %v for patient %d", den, i)
			}
		}
	}
	for i, v := range m.ScoreResiduals() {
		if bad(v) {
			return fmt.Errorf("stats: score residual %v for patient %d", v, i)
		}
	}
	return nil
}

// PackedRowScores computes the marginal score U_j = Σ_i dosage(G_ij) · r_i of
// every row of the block straight off its 2-bit bytes into out (grown as
// needed), for r the model's score residuals; missing scores as dosage zero.
//
// Summation-order contract. Lane k ∈ {0,1,2,3} sums dosage_i · r_i over the
// patients i ≡ k (mod 4) in ascending i, each term one rounded multiply added
// to the lane's running sum; the score is (lane0 + lane1) + (lane2 + lane3).
// A row's score therefore depends on its bytes and r alone — not on the block
// or partition that carries the row, nor on how many workers run.
//
// On amd64 with AVX2 the order is one ymm register per row: kernel_amd64.s
// scores the full bytes of four rows per call, and this wrapper adds each
// row's partial byte and combines its lanes. packedRowScore, the same order
// one row at a time in Go, scores the rows left after the last group of four,
// and every row on a host without AVX2 or off amd64. The block's shape is
// checked first, so a malformed block (a corrupt spill frame, say) panics
// before any row is scored instead of being read out of bounds.
func PackedRowScores(blk data.GenoBlock, r, out []float64) []float64 {
	if len(r) != blk.Patients {
		panic(fmt.Sprintf("stats: block for %d patients, %d score residuals", blk.Patients, len(r)))
	}
	checkBlockShape(blk)
	rows := blk.Rows()
	out = sized(out, rows)
	for row := scoreRowGroups(blk, r, out); row < rows; row++ {
		out[row] = packedRowScore(blk.Row(row), r)
	}
	return out
}

// checkBlockShape panics unless every row of the block is
// BlockRowBytes(Patients) bytes and Packed holds them all: the check both
// packed kernels run before they read a row.
func checkBlockShape(blk data.GenoBlock) {
	rows := blk.Rows()
	if want := data.BlockRowBytes(blk.Patients); blk.RowBytes != want || len(blk.Packed) < rows*want {
		panic(fmt.Sprintf("stats: block of %d rows for %d patients has %d-byte rows and %d packed bytes, want %d-byte rows",
			rows, blk.Patients, blk.RowBytes, len(blk.Packed), want))
	}
}

func packedRowScore(packed []byte, r []float64) float64 {
	var a0, a1, a2, a3 float64
	full := len(r) >> 2
	for k, v := range packed[:full] {
		q := r[4*k : 4*k+4 : 4*k+4]
		a0 += codeDosage[v&3] * q[0]
		a1 += codeDosage[(v>>2)&3] * q[1]
		a2 += codeDosage[(v>>4)&3] * q[2]
		a3 += codeDosage[v>>6] * q[3]
	}
	lanes := [4]float64{a0, a1, a2, a3}
	for l, x := range r[4*full:] { // the final, partial byte
		lanes[l] += codeDosage[(packed[full]>>uint(2*l))&3] * x
	}
	return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

// panelTile is the number of panel columns scored per walk of a row's cell
// list: one float64 accumulator each, a 64-byte cell — one zmm register in
// the AVX-512 walk, two ymm registers in the AVX2 one.
const panelTile = 8

// panelCell is one table entry: c·r̃_i for the panelTile columns of a tile, at
// one patient i and dosage class c.
type panelCell [panelTile]float64

// PanelKernel scores packed genotype blocks against a patients × width panel
// of score residuals R̃ — one column per Monte Carlo replicate, or per
// phenotype of the all-pairs cross's WideKernel — so that one pass over a
// block serves width columns. Its genotypes take three dosage classes, so it
// never multiplies: a table of 1·r̃ and 2·r̃, column-tiled and patient-major,
// each row turned into lists of the table cells of its non-zero patients
// (compactLanes: 32 patients a step on amd64 with AVX2), and the cells added
// into panelTile accumulators per list and tile, two lists over two adjacent
// tiles per sumTilePairs call — on amd64 with AVX-512F four zmm registers of
// eight columns each.
//
// Summation-order contract. A row's cells are listed in four lane segments,
// lane l holding the patients i ≡ l (mod 4) in ascending i; each segment is
// summed on its own from +0 (segments 0 and 1 share one walk, 2 and 3 the
// next) and the four sums combined (l0 + l1) + (l2 + l3).
// That is PackedRowScores' order with the exact-zero terms left out, which
// changes nothing while the panel is finite and 2·r̃ does not overflow (the
// omitted term is ±0, and 1·r̃ and 2·r̃ are exact): column k of Scores is bit
// for bit PackedRowScores(blk, column k of R̃), whatever the width and
// wherever in a batch the column sits. Width 1 is PackedRowScores itself.
//
// The table built by NewPanelKernel is immutable, and each Scores call takes
// its cell-list scratch from the kernel's pool and returns it, so one kernel
// serves every task of a job at once.
type PanelKernel struct {
	patients, width int
	column          []float64   // width 1: the panel, handed to PackedRowScores
	table           []panelCell // width > 1: tile t is table[t·2n:(t+1)·2n], cell 2i+c−1 = c·r̃_i
	scratch         sync.Pool   // *panelScratch
}

// panelScratch is one Scores call's cell lists: row r, lane l lists at
// cells[(4r+l)·⌈n/4⌉:ends[4r+l]].
type panelScratch struct {
	cells []uint32
	ends  []int
}

// NewPanelKernel builds the kernel of a patients × width panel, patient-major
// (patient i's residual in column k is panel[i*width+k]), in one pass over it.
func NewPanelKernel(patients, width int, panel []float64) *PanelKernel {
	checkPanel(patients, panel, width)
	if width == 1 {
		return &PanelKernel{patients: patients, width: width, column: panel}
	}
	tiles := (width + panelTile - 1) / panelTile
	k := &PanelKernel{patients: patients, width: width, table: make([]panelCell, tiles*2*patients)}
	for i := 0; i < patients; i++ {
		for c, v := range panel[i*width:][:width] {
			tile := k.table[c/panelTile*2*patients:]
			tile[2*i][c%panelTile] = v
			tile[2*i+1][c%panelTile] = 2 * v
		}
	}
	return k
}

// dosageClass is codeScoring as the cell offset a class adds: missing (01) and
// the reference homozygote (11) have no cell.
var dosageClass = [4]uint32{2, 0, 1, 0}

// Scores computes the block's rows × width marginal scores, row-major, into
// out (grown as needed). It is safe for concurrent use.
func (k *PanelKernel) Scores(blk data.GenoBlock, out []float64) []float64 {
	if k.width == 1 {
		return PackedRowScores(blk, k.column, out)
	}
	n, width, rows := k.patients, k.width, blk.Rows()
	if blk.Patients != n {
		panic(fmt.Sprintf("stats: block for %d patients, residual panel for %d", blk.Patients, n))
	}
	checkBlockShape(blk)
	s, _ := k.scratch.Get().(*panelScratch)
	if s == nil {
		s = new(panelScratch)
	}
	quarter := (n + 3) / 4
	s.cells, s.ends = sized(s.cells, rows*4*quarter), sized(s.ends, rows*4)
	cells, ends := s.cells, s.ends
	out = sized(out, rows*width)

	for r := 0; r < rows; r++ {
		w := (*[4]int)(ends[4*r:])
		*w = [4]int{4 * r * quarter, (4*r + 1) * quarter, (4*r + 2) * quarter, (4*r + 3) * quarter}
		compactLanes(cells, blk.Row(r), n, w)
	}
	list := func(r, l int) []uint32 { return cells[(4*r+l)*quarter : ends[4*r+l]] }

	// Tile pairs outermost, so their 4n cells stay cache-resident across the
	// block's rows; an odd last tile is walked alone.
	tiles := (width + panelTile - 1) / panelTile
	for t := 0; t < tiles; t += 2 {
		if t+1 == tiles {
			tile := k.table[t*2*n:][:2*n]
			for r := 0; r < rows; r++ {
				var l01, l23 [2]panelCell
				sumCellPairs(tile, list(r, 0), list(r, 1), &l01)
				sumCellPairs(tile, list(r, 2), list(r, 3), &l23)
				addLanes(out[r*width+t*panelTile:width*(r+1)], &l01[0], &l01[1], &l23[0], &l23[1])
			}
			break
		}
		pair := k.table[t*2*n:][:4*n]
		for r := 0; r < rows; r++ {
			var l01, l23 [4]panelCell // lanes 0–1 and 2–3: tile t, then t+1
			sumTilePairs(pair, list(r, 0), list(r, 1), &l01)
			sumTilePairs(pair, list(r, 2), list(r, 3), &l23)
			addLanes(out[r*width+t*panelTile:][:panelTile], &l01[0], &l01[1], &l23[0], &l23[1])
			addLanes(out[r*width+(t+1)*panelTile:width*(r+1)], &l01[2], &l01[3], &l23[2], &l23[3])
		}
	}
	k.scratch.Put(s)
	return out
}

// addLanes writes the first len(out) columns of a tile's four lane sums,
// combined (l0 + l1) + (l2 + l3).
func addLanes(out []float64, l0, l1, l2, l3 *panelCell) {
	for c := range out[:min(len(out), panelTile)] {
		out[c] = (l0[c] + l1[c]) + (l2[c] + l3[c])
	}
}

// compactLanes appends the table cells of a packed row's n patients to its
// four lane lists: patient i = 4b+l of dosage class c ≠ 0 is cell 8b+2l+c−1,
// written at cells[w[l]], and w[l] advances past it. laneChunks takes the
// row's whole 8-byte chunks where the host has AVX2; compactBytes the rest,
// or the whole row.
func compactLanes(cells []uint32, packed []byte, n int, w *[4]int) {
	compactBytes(cells, packed, n, laneChunks(cells, packed, n, w), w)
}

// compactBytes is compactLanes from byte from on, in Go: branch-free, every
// patient writes its cell index at its lane's cursor and only a non-zero
// dosage advances it. It is the whole compaction off amd64 and the oracle of
// laneChunks.
func compactBytes(cells []uint32, packed []byte, n, from int, w *[4]int) {
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for j, v := range packed[from : n>>2] {
		at := uint32(8*(from+j)) - 1 // cell 2i+c−1 of patient i = 4b+l is at+2l+c
		c0, c1, c2, c3 := dosageClass[v&3], dosageClass[(v>>2)&3], dosageClass[(v>>4)&3], dosageClass[v>>6]
		cells[w0] = at + c0
		w0 += int((c0 + 1) >> 1)
		cells[w1] = at + 2 + c1
		w1 += int((c1 + 1) >> 1)
		cells[w2] = at + 4 + c2
		w2 += int((c2 + 1) >> 1)
		cells[w3] = at + 6 + c3
		w3 += int((c3 + 1) >> 1)
	}
	*w = [4]int{w0, w1, w2, w3}
	for l := 0; l < n&3; l++ { // the final, partial byte
		c := dosageClass[(packed[n>>2]>>uint(2*l))&3]
		cells[w[l]] = uint32(2*(n&^3+l)) - 1 + c
		w[l] += int((c + 1) >> 1)
	}
}

// sumTilePairs is sumCellPairs(tile, a, b, sums[:2]) over tile t, the first
// len(pair)/2 cells of pair, then sumCellPairs(tile, a, b, sums[2:]) over tile
// t+1, the next as many, bit for bit: in one walk of both tiles where the host
// has AVX-512F. On an out-of-range index, or without AVX-512F, it runs exactly
// those two calls, which panic on the index as indexing does.
func sumTilePairs(pair []panelCell, a, b []uint32, sums *[4]panelCell) {
	if !walkTilePairs(pair, a, b, sums) {
		half := len(pair) / 2
		sumCellPairs(pair[:half], a, b, (*[2]panelCell)(sums[:2]))
		sumCellPairs(pair[half:2*half], a, b, (*[2]panelCell)(sums[2:]))
	}
}

// sumCells adds the listed cells of a tile into sum, in list order from +0:
// the panel kernel's walk, run through sumTilePairs and sumCellPairs. It is
// that walk off amd64 and the oracle of the amd64 ones.
func sumCells(tile []panelCell, list []uint32, sum *panelCell) {
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
	*sum = panelCell{a0, a1, a2, a3, a4, a5, a6, a7}
}

// sized returns buf resliced to n elements, reallocated only when it is too
// small; contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// BlockKernel applies a score model to packed genotype blocks. A kernel is
// built once per partition (it owns a decode buffer) and used from a single
// goroutine; concurrent consumers build one kernel each.
type BlockKernel struct {
	model     Model
	dec       []data.Genotype
	cox       *Cox      // non-nil when the model is Cox, whose contributions and variance take cum
	cum, cum2 []float64 // Cox's prefix-sum scratch: one per kernel, not one per SNP
}

// NewBlockKernel builds a kernel for the model.
func NewBlockKernel(m Model) *BlockKernel {
	k := &BlockKernel{model: m, dec: make([]data.Genotype, m.Patients())}
	if c, ok := m.(*Cox); ok {
		k.cox, k.cum, k.cum2 = c, make([]float64, m.Patients()+1), make([]float64, m.Patients()+1)
	}
	return k
}

// Contributions computes the block's per-patient contributions: the columnar
// form of Algorithm 1 step 7. Allocations are flat per block (the SNP column
// copy and the contribution matrix) regardless of the patient count.
func (k *BlockKernel) Contributions(blk data.GenoBlock) UBlock {
	n := blk.Patients
	if n != k.model.Patients() {
		panic(fmt.Sprintf("stats: block for %d patients, model for %d", n, k.model.Patients()))
	}
	rows := blk.Rows()
	out := UBlock{
		Patients: n,
		SNPs:     append([]int32(nil), blk.SNPs...),
		U:        make([]float64, rows*n),
	}
	for r := 0; r < rows; r++ {
		u, dec := out.U[r*n:(r+1)*n], k.Decode(blk, r)
		if k.cox != nil {
			k.cox.contributions(dec, u, k.cum)
		} else {
			k.model.Contributions(dec, u)
		}
	}
	return out
}

// Decode unpacks row r of the block into the kernel's owned buffer as
// scoring genotypes (missing -> 0). The buffer is valid until the next
// kernel call.
func (k *BlockKernel) Decode(blk data.GenoBlock, r int) []data.Genotype {
	dec := k.dec[:blk.Patients]
	DecodeDosageGenotypes(blk.Row(r), dec)
	return dec
}

// Variance is Model.Variance of row r of the block, bit for bit: the row
// decoded into the kernel's buffer and, for Cox, the prefix sums in its
// scratch, so a task scoring many rows allocates neither per row.
func (k *BlockKernel) Variance(blk data.GenoBlock, r int) float64 {
	dec := k.Decode(blk, r)
	if k.cox != nil {
		return k.cox.variance(dec, k.cum, k.cum2)
	}
	return k.model.Variance(dec)
}
