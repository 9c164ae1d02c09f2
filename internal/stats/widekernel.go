// The wide multi-phenotype kernel of the all-pairs association engine. The
// single-phenotype BlockKernel fuses one residual vector with the 2-bit
// dosage decode; scoring M phenotypes that way decodes every genotype block M
// times and rescans it twice more per phenotype for the variance. The wide
// kernel instead decodes each SNP row ONCE into a dosage vector, computes the
// SNP's genotype moments (sum, mean, centered sum of squares) once, and then
// sweeps the whole phenotype batch over the shared dosages — matrix–matrix
// instead of matrix–vector. The variance factorisation makes the amortisation
// exact: for the Gaussian and Binomial families
//
//	Var(U_j) = scale_p · Σ_i (G_ij − Ḡ_j)²
//
// where scale_p (σ̂² or Ȳ(1−Ȳ)) is SNP-invariant and the sum is
// phenotype-invariant, so per (SNP, phenotype) pair only the score's dot
// product remains.
//
// Arithmetic order matches per-phenotype Score/Variance calls exactly —
// dosages are the same float64 values a genotype decode-then-convert yields,
// the score accumulates in patient order, and the moment loops mirror
// Gaussian.Variance/Binomial.Variance — so wide and per-phenotype results are
// bitwise identical.

package stats

import (
	"fmt"

	"sparkscore/internal/data"
)

// VarianceScaler is implemented by models whose null variance factorises as
// VarianceScale() · Σ_i (G_ij − Ḡ_j)² — the Gaussian and Binomial families.
// Together with Residualer it is what the wide kernel needs to amortise the
// genotype decode across a phenotype batch; the Cox family (risk sets couple
// patients) satisfies neither and stays on the per-phenotype path.
type VarianceScaler interface {
	// VarianceScale returns the SNP-invariant factor of the null variance.
	VarianceScale() float64
}

// VarianceScale implements VarianceScaler: the residual variance σ̂².
func (g *Gaussian) VarianceScale() float64 { return g.sigma2 }

// VarianceScale implements VarianceScaler: Ȳ(1−Ȳ).
func (b *Binomial) VarianceScale() float64 { return b.meanY * (1 - b.meanY) }

// decodeDosages unpacks 2-bit codes straight into float64 scoring dosages
// (missing -> 0), four patients per byte; len(dst) genotypes are read. The
// table holds exactly float64(codeScoring[c]), so dst matches what a genotype
// decode-then-convert produces bit for bit.
func decodeDosages(packed []byte, dst []float64) {
	n := len(dst)
	for i := 0; i+4 <= n; i += 4 {
		v := packed[i>>2]
		dst[i] = codeDosage[v&3]
		dst[i+1] = codeDosage[(v>>2)&3]
		dst[i+2] = codeDosage[(v>>4)&3]
		dst[i+3] = codeDosage[v>>6]
	}
	for i := n &^ 3; i < n; i++ {
		dst[i] = codeDosage[(packed[i>>2]>>uint((i&3)*2))&3]
	}
}

// WideKernel scores every (SNP, phenotype) pair of a genotype block against a
// batch of phenotype models in one decode pass per SNP. A kernel is built
// once per (partition, batch) and used from a single goroutine (it owns the
// dosage scratch).
type WideKernel struct {
	models []Model
	resids [][]float64 // per-phenotype residual vectors
	scales []float64   // per-phenotype variance factors
	dos    []float64   // decoded dosages of the current SNP row
}

// NewWideKernel builds a wide kernel over the batch. Every model must share
// the patient count and implement Residualer and VarianceScaler.
func NewWideKernel(models []Model) (*WideKernel, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("stats: wide kernel over an empty phenotype batch")
	}
	n := models[0].Patients()
	k := &WideKernel{
		models: models,
		resids: make([][]float64, len(models)),
		scales: make([]float64, len(models)),
		dos:    make([]float64, n),
	}
	for p, m := range models {
		if m.Patients() != n {
			return nil, fmt.Errorf("stats: wide kernel phenotype %d has %d patients, batch has %d",
				p, m.Patients(), n)
		}
		r, ok := m.(Residualer)
		if !ok {
			return nil, fmt.Errorf("stats: wide kernel needs residual-form models; %q does not factorise", m.Name())
		}
		v, ok := m.(VarianceScaler)
		if !ok {
			return nil, fmt.Errorf("stats: wide kernel needs a factorised variance; %q does not provide one", m.Name())
		}
		k.resids[p] = r.Residuals()
		k.scales[p] = v.VarianceScale()
	}
	return k, nil
}

// Phenotypes returns the batch width.
func (k *WideKernel) Phenotypes() int { return len(k.models) }

// BlockStats visits every (SNP, phenotype) pair of the block in row-major
// order (all phenotypes of row 0, then row 1, ...), passing the marginal
// score and its null variance. Each row is decoded once and its genotype
// moments computed once; per phenotype only the residual dot product runs.
func (k *WideKernel) BlockStats(blk data.GenoBlock, visit func(snp int32, pheno int, score, variance float64)) {
	n := blk.Patients
	if n != k.models[0].Patients() {
		panic(fmt.Sprintf("stats: block for %d patients, wide kernel for %d", n, k.models[0].Patients()))
	}
	dos := k.dos[:n]
	for r := 0; r < blk.Rows(); r++ {
		decodeDosages(blk.Row(r), dos)
		// Genotype moments, in the exact loop shapes of Gaussian.Variance and
		// Binomial.Variance: one pass for the sum, one for the centered sum of
		// squares.
		var sumG float64
		for _, v := range dos {
			sumG += v
		}
		meanG := sumG / float64(n)
		var ss float64
		for _, v := range dos {
			d := v - meanG
			ss += d * d
		}
		snp := blk.SNPs[r]
		for p, resid := range k.resids {
			var score float64
			for i, v := range dos {
				score += v * resid[i]
			}
			visit(snp, p, score, k.scales[p]*ss)
		}
	}
}
