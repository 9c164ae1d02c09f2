// Blocked score kernels over packed genotype blocks. Model.Contributions
// computes one SNP at a time: decode a row, allocate a contribution slice,
// loop. A BlockKernel instead consumes a whole data.GenoBlock in one pass —
// for residual-form models (Gaussian, Binomial, and their covariate-adjusted
// variants) the 2-bit dosage decode and the score accumulation fuse into a
// single loop over the packed bytes, and the block's contributions land in
// one flat allocation. Monte Carlo reweighting then becomes a matrix–vector
// product over the cached UBlock instead of per-SNP MonteCarloScore calls.
//
// Arithmetic order matches the per-row Model.Contributions path exactly (per
// row, in patient order), so block kernels and the engine-free references
// produce bitwise-identical scores.

package stats

import (
	"fmt"

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
// the contributions of SNP SNPs[r]. It is the cached unit of the columnar
// Monte Carlo pipeline (Algorithm 3's RDD U, blocked).
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

// Scores computes the per-row marginal scores into out (grown as needed):
// with z nil each row sums to the observed U_j; otherwise the Monte Carlo
// replicate Ũ_j = Σ_i z_i U_ij, a matrix–vector product over the block. It is
// the width-1 case of PanelScores.
func (b *UBlock) Scores(z, out []float64) []float64 {
	return b.PanelScores(z, 1, out)
}

// panelTile is the number of Monte Carlo replicates scored per pass over a U
// row: one float64 register accumulator each (the wide kernel's idiom).
const panelTile = 8

// PanelScores computes the marginal scores of every row under width Monte
// Carlo replicates at once — the block's slice of the U·Z product of
// replicate-batched Algorithm 3. z is the patients × width weight panel,
// patient-major (patient i's weight in replicate k is z[i*width+k]); out,
// grown as needed, is rows × width, row-major. A nil z with width 1 is the
// observed statistic: each row's plain sum.
//
// Summation-order contract. out[r*width+k] = Σ over patients in ascending
// index of U_ri · z_ik, each term one rounded multiply added to one running
// sum: exactly MonteCarloScore(Row(r), column k), bit for bit, whatever the
// width. Each row is read once per tile of panelTile replicates; columns
// beyond the last whole tile run MonteCarloScore's own loop one at a time, so
// width 1 costs the plain matrix–vector product.
func (b *UBlock) PanelScores(z []float64, width int, out []float64) []float64 {
	rows, n := b.Rows(), b.Patients
	if width < 1 || (z == nil && width != 1) || (z != nil && len(z) != n*width) {
		panic(fmt.Sprintf("stats: %d Monte Carlo weights for %d patients x %d replicates", len(z), n, width))
	}
	out = sized(out, rows*width)
	tiled := width &^ (panelTile - 1)
	for r := 0; r < rows; r++ {
		row, dst := b.U[r*n:(r+1)*n], out[r*width:(r+1)*width]
		if z == nil {
			var s float64
			for _, v := range row {
				s += v
			}
			dst[0] = s
			continue
		}
		for lo := 0; lo < tiled; lo += panelTile {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			zt := z[lo:]
			for i, v := range row {
				e := zt[i*width:][:panelTile]
				a0 += v * e[0]
				a1 += v * e[1]
				a2 += v * e[2]
				a3 += v * e[3]
				a4 += v * e[4]
				a5 += v * e[5]
				a6 += v * e[6]
				a7 += v * e[7]
			}
			copy(dst[lo:], []float64{a0, a1, a2, a3, a4, a5, a6, a7})
		}
		for k := tiled; k < width; k++ {
			dst[k] = panelColumn(row, z[k:], width)
		}
	}
	return out
}

// panelColumn is Σ_i row[i] · z[i*stride] in ascending i. A contiguous column
// goes to MonteCarloScore itself: the strided loop measures ~10% slower at
// stride 1, and a served Replicate is exactly that case.
func panelColumn(row, z []float64, stride int) float64 {
	if stride == 1 {
		return MonteCarloScore(row, z)
	}
	var s float64
	j := 0
	for _, v := range row {
		s += v * z[j]
		j += stride
	}
	return s
}

// Residualer is implemented by models whose contribution factorises as
// U_ij = G_ij · r_i for a SNP-invariant per-patient residual vector r — the
// Gaussian and Binomial families and their covariate-adjusted forms. The
// kernel exploits it to fuse dosage decode with accumulation; models without
// the factorisation (Cox, whose risk sets couple the per-patient terms) take
// the decode-then-Contributions path instead.
type Residualer interface {
	// Residuals returns the per-patient residual vector; callers must not
	// mutate it.
	Residuals() []float64
}

// ScoreResidualer is implemented by models whose marginal score factorises as
// U_j = Σ_i G_ij · r_i for a SNP-invariant vector r, whether or not the
// per-patient contributions do: every Residualer (r is its residual vector)
// and Cox (see Cox.ScoreResiduals). It is all a pass that never reweights
// patients needs — the observed statistic, a permutation replicate — and
// PackedRowScores evaluates it with no U at all. Lin's Monte Carlo method
// needs the per-patient terms and stays on Contributions.
type ScoreResidualer interface {
	// ScoreResiduals returns r; callers must not mutate it.
	ScoreResiduals() []float64
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
func PackedRowScores(blk data.GenoBlock, r, out []float64) []float64 {
	if len(r) != blk.Patients {
		panic(fmt.Sprintf("stats: block for %d patients, %d score residuals", blk.Patients, len(r)))
	}
	rows := blk.Rows()
	out = sized(out, rows)
	for row := range out {
		out[row] = packedRowScore(blk.Row(row), r)
	}
	return out
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

// BlockKernel applies a score model to packed genotype blocks. A kernel is
// built once per partition (it owns a decode buffer) and used from a single
// goroutine; concurrent consumers build one kernel each.
type BlockKernel struct {
	model Model
	resid []float64 // non-nil selects the fused dosage×residual path
	dec   []data.Genotype
	cox   *Cox      // non-nil when the model is Cox, whose contributions take cum
	cum   []float64 // Cox's prefix-sum scratch: one per kernel, not one per SNP
}

// NewBlockKernel builds a kernel for the model.
func NewBlockKernel(m Model) *BlockKernel {
	k := &BlockKernel{model: m, dec: make([]data.Genotype, m.Patients())}
	if r, ok := m.(Residualer); ok {
		k.resid = r.Residuals()
	} else if c, ok := m.(*Cox); ok {
		k.cox, k.cum = c, make([]float64, m.Patients()+1)
	}
	return k
}

// Model returns the kernel's score model.
func (k *BlockKernel) Model() Model { return k.model }

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
		u := out.U[r*n : (r+1)*n]
		if k.resid != nil {
			fusedDosageAccumulate(blk.Row(r), k.resid, u)
			continue
		}
		dec := k.dec[:n]
		DecodeDosageGenotypes(blk.Row(r), dec)
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

// fusedDosageAccumulate is the fused inner loop: u[i] = dosage(code_i) · r_i
// straight off the packed bytes, four patients per byte, no intermediate
// genotype slice. The multiply matches float64(g_i)·r_i of Model.Contributions
// bit for bit, since the dosage table holds the same float64 values.
func fusedDosageAccumulate(packed []byte, resid, u []float64) {
	n := len(resid)
	i := 0
	for ; i+4 <= n; i += 4 {
		v := packed[i>>2]
		u[i] = codeDosage[v&3] * resid[i]
		u[i+1] = codeDosage[(v>>2)&3] * resid[i+1]
		u[i+2] = codeDosage[(v>>4)&3] * resid[i+2]
		u[i+3] = codeDosage[v>>6] * resid[i+3]
	}
	for ; i < n; i++ {
		u[i] = codeDosage[(packed[i>>2]>>uint((i&3)*2))&3] * resid[i]
	}
}
