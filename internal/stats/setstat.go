// Alternative SNP-set statistics and weighting schemes. The paper reviews
// SKAT as "one method of combining the marginal scores" and cites the
// rare-variant testing literature (Basu & Pan 2011; Lee et al. 2014) for
// others; the burden statistic below is the other standard member of that
// family, and the Beta(1,25) allele-frequency weights are the default of the
// original SKAT paper (Wu et al. 2011).

package stats

import (
	"fmt"
	"math"

	"sparkscore/internal/data"
)

// SetStatistic combines the marginal scores of one SNP-set into a set-level
// statistic. It is split into a per-SNP term and a set-level finalisation so
// the distributed pipeline can sum the per-SNP terms with a reduceByKey and
// apply Finalize on the driver. Implementations must be usable concurrently.
type SetStatistic interface {
	// Name identifies the statistic ("skat", "burden").
	Name() string
	// PerSNP maps one SNP's weight ω_j and marginal score U_j to its
	// additive contribution to the set sum.
	PerSNP(weight, score float64) float64
	// AddPerSNP adds one SNP's terms for a row of scores into a row of set
	// sums: acc[c] += PerSNP(weight, scores[c]) for every c, bit for bit, in
	// one call. len(acc) must be at least len(scores).
	AddPerSNP(acc []float64, weight float64, scores []float64)
	// Finalize maps the summed contributions to the set statistic.
	Finalize(sum float64) float64
}

// SKATStatistic is the paper's statistic: S_k = Σ ω_j² U_j². A variance-
// component test, powerful when effects within the set differ in direction.
type SKATStatistic struct{}

// Name implements SetStatistic.
func (SKATStatistic) Name() string { return "skat" }

// PerSNP implements SetStatistic: ω_j² U_j².
func (SKATStatistic) PerSNP(weight, score float64) float64 {
	return weight * weight * score * score
}

// AddPerSNP implements SetStatistic. The explicit conversion rounds each
// term before its add, as PerSNP's return does: without it the spec lets a
// compiler fuse the last multiply and the add into one FMA.
func (SKATStatistic) AddPerSNP(acc []float64, weight float64, scores []float64) {
	acc = acc[:len(scores)]
	ww := weight * weight
	for c, s := range scores {
		acc[c] += float64(ww * s * s)
	}
}

// Finalize implements SetStatistic (identity).
func (SKATStatistic) Finalize(sum float64) float64 { return sum }

// BurdenStatistic is the weighted burden test: S_k = (Σ ω_j U_j)². It
// collapses the set into one weighted super-variant and is the more powerful
// choice when most variants in the set act in the same direction.
type BurdenStatistic struct{}

// Name implements SetStatistic.
func (BurdenStatistic) Name() string { return "burden" }

// PerSNP implements SetStatistic: ω_j U_j.
func (BurdenStatistic) PerSNP(weight, score float64) float64 {
	return weight * score
}

// AddPerSNP implements SetStatistic, each product rounded before its add as
// in SKATStatistic.AddPerSNP.
func (BurdenStatistic) AddPerSNP(acc []float64, weight float64, scores []float64) {
	acc = acc[:len(scores)]
	for c, s := range scores {
		acc[c] += float64(weight * s)
	}
}

// Finalize implements SetStatistic: the square of the weighted sum.
func (BurdenStatistic) Finalize(sum float64) float64 { return sum * sum }

// NewSetStatistic returns the named statistic ("" defaults to SKAT).
func NewSetStatistic(name string) (SetStatistic, error) {
	switch name {
	case "", "skat":
		return SKATStatistic{}, nil
	case "burden":
		return BurdenStatistic{}, nil
	default:
		return nil, fmt.Errorf("stats: unknown set statistic %q", name)
	}
}

// Combine evaluates the statistic for one set from the full score vector.
func Combine(st SetStatistic, set data.SNPSet, weights data.Weights, scores []float64) float64 {
	sum := 0.0
	for _, j := range set.SNPs {
		sum += st.PerSNP(weights[j], scores[j])
	}
	return st.Finalize(sum)
}

// CombineAll evaluates the statistic for every set.
func CombineAll(st SetStatistic, sets data.SNPSets, weights data.Weights, scores []float64) []float64 {
	out := make([]float64, len(sets))
	for k, set := range sets {
		out[k] = Combine(st, set, weights, scores)
	}
	return out
}

// BetaMAFWeights computes the Beta-density weights of Wu et al. (2011):
// ω_j = Beta(MAF_j; a, b) up-weights rare variants. The canonical choice is
// a=1, b=25. MAFs are estimated from the genotype matrix as half the mean
// genotype; monomorphic SNPs (MAF 0 or 1) get weight 0 so they cannot
// dominate through an unbounded density.
func BetaMAFWeights(m *data.GenotypeMatrix, a, b float64) (data.Weights, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"a", a}, {"b", b}} {
		if !(p.v > 0) || math.IsInf(p.v, 1) {
			return nil, fmt.Errorf("stats: Beta weight parameter %s = %g, must be positive and finite", p.name, p.v)
		}
	}
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	logNorm := lgAB - lgA - lgB
	w := make(data.Weights, m.SNPs())
	n := float64(m.Patients)
	for j := range w {
		sum := 0.0
		for _, g := range m.Row(j) {
			sum += float64(g)
		}
		maf := sum / (2 * n)
		if maf > 0.5 {
			maf = 1 - maf // weight by the minor allele
		}
		if maf <= 0 {
			w[j] = 0
			continue
		}
		w[j] = math.Exp(logNorm + (a-1)*math.Log(maf) + (b-1)*math.Log(1-maf))
	}
	return w, nil
}
