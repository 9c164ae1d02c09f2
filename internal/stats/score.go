// Package stats implements the efficient score statistics at the heart of
// SparkScore — the Cox score for censored survival phenotypes plus the
// Gaussian and Binomial families listed in the paper's Figure 1 — together
// with SKAT SNP-set aggregation, empirical and asymptotic p-values, and the
// Wald/likelihood-ratio comparator the paper argues the score test avoids.
//
// The central object is the per-patient score contribution U_ij: the share of
// patient i in the marginal score U_j = Σ_i U_ij of SNP j under the null
// hypothesis of no association. Resampling replicates reuse (Monte Carlo) or
// recompute (permutation) these contributions.
package stats

import (
	"fmt"
	"math"
	"sort"

	"sparkscore/internal/data"
)

// Model computes per-patient score contributions for one SNP under a fixed
// phenotype. A Model is built once per phenotype (or per permutation of the
// phenotype) and then applied to many SNPs; implementations precompute
// everything SNP-invariant at construction — the paper's observation that
// "b_i is invariant with respect to the SNP and only needs to be calculated
// once per analysis". All methods are safe for concurrent use across SNPs.
type Model interface {
	// Name identifies the score family ("cox", "gaussian", "binomial").
	Name() string

	// Contributions fills u[i] with U_ij for the SNP whose genotypes are g.
	// len(u) must equal len(g) and both must equal the patient count.
	Contributions(g []data.Genotype, u []float64)

	// Variance returns the null variance estimate of U_j = Σ_i U_ij, used by
	// the asymptotic (large-sample) test.
	Variance(g []data.Genotype) float64

	// Patients returns the number of patients the model was built for.
	Patients() int
}

// Score sums the per-patient contributions into the marginal score U_j.
func Score(m Model, g []data.Genotype) float64 {
	u := make([]float64, len(g))
	m.Contributions(g, u)
	s := 0.0
	for _, v := range u {
		s += v
	}
	return s
}

// Cox is the efficient score model for right-censored survival outcomes
// under the Cox proportional hazards null (Cox 1972):
//
//	U_ij = Δ_i (G_ij − a_ij/b_i)
//
// with a_ij = Σ_l 1(Y_l ≥ Y_i) G_lj (risk-set genotype sum) and
// b_i = Σ_l 1(Y_l ≥ Y_i) (risk-set size).
//
// Construction sorts patients by observed time once; per-SNP contributions
// then cost O(n) via prefix sums over the sorted order, instead of the naive
// O(n²) double loop.
type Cox struct {
	ph *data.Phenotype

	// order holds patient indices sorted by Y descending, so the risk set of
	// the patient at sorted position p is exactly order[0..groupEnd[p]].
	order []int
	// groupEnd[p] is the last sorted position whose Y ties with position p;
	// risk sets use Y_l >= Y_i, so ties are included.
	groupEnd []int
	// pos[i] is patient i's sorted position.
	pos []int
	// riskDen[i] is the risk-set denominator for patient i: b_i when
	// unweighted, Σ_{l∈R_i} w_l under covariate-adjusted risk weights.
	riskDen []float64
	// w holds per-patient risk weights e^{γ̂·X} for the covariate-adjusted
	// model; nil means unweighted (all ones).
	w []float64
}

// NewCox builds a Cox score model for the phenotype. The phenotype must have
// at least one patient; times may tie (risk sets then share members).
func NewCox(ph *data.Phenotype) (*Cox, error) {
	n := ph.Patients()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty phenotype")
	}
	if err := ph.Validate(); err != nil {
		return nil, err
	}
	c := &Cox{
		ph:       ph,
		order:    make([]int, n),
		groupEnd: make([]int, n),
		pos:      make([]int, n),
		riskDen:  make([]float64, n),
	}
	for i := range c.order {
		c.order[i] = i
	}
	sort.SliceStable(c.order, func(a, b int) bool {
		return ph.Y[c.order[a]] > ph.Y[c.order[b]]
	})
	// Mark tie groups: walk backwards carrying the end of the current group.
	end := n - 1
	for p := n - 1; p >= 0; p-- {
		if p < n-1 && ph.Y[c.order[p]] != ph.Y[c.order[p+1]] {
			end = p
		}
		c.groupEnd[p] = end
	}
	for p, i := range c.order {
		c.pos[i] = p
		c.riskDen[i] = float64(c.groupEnd[p] + 1)
	}
	return c, nil
}

// Name implements Model.
func (c *Cox) Name() string { return "cox" }

// Patients implements Model.
func (c *Cox) Patients() int { return len(c.order) }

// Contributions implements Model in O(n) per SNP. Under covariate-adjusted
// risk weights w_l the risk-set genotype average becomes weighted.
func (c *Cox) Contributions(g []data.Genotype, u []float64) {
	c.contributions(g, u, make([]float64, len(c.order)+1))
}

// contributions is Contributions with the prefix-sum scratch supplied by the
// caller (n+1 floats, any contents), so a kernel scoring many SNPs from one
// goroutine allocates it once.
func (c *Cox) contributions(g []data.Genotype, u, cum []float64) {
	n := len(c.order)
	checkLens(n, g, u)
	// cum[p+1] = weighted genotype sum of the first p+1 sorted patients.
	cum[0] = 0
	for p, i := range c.order {
		wi := 1.0
		if c.w != nil {
			wi = c.w[i]
		}
		cum[p+1] = cum[p] + wi*float64(g[i])
	}
	for i := 0; i < n; i++ {
		if c.ph.Event[i] == 0 {
			u[i] = 0
			continue
		}
		a := cum[c.groupEnd[c.pos[i]]+1]
		u[i] = float64(g[i]) - a/c.riskDen[i]
	}
}

// ScoreResiduals implements ScoreResidualer: the null model's martingale
// residuals, PanelResiduals under unit weights.
func (c *Cox) ScoreResiduals() []float64 {
	ones := make([]float64, len(c.order))
	for i := range ones {
		ones[i] = 1
	}
	return c.PanelResiduals(ones, 1)
}

// PanelResiduals implements ScoreResidualer. The contributions couple
// patients through the risk sets, but their weighted sum does not: exchanging
// the order of summation in
// Ũ_j = Σ_i Z_i Δ_i (G_ij − Σ_{l∈R_i} w_l G_lj / den_i) gives Ũ_j = Σ_l G_lj r̃_l
// with
//
//	r̃_l = Z_l Δ_l − w_l · Σ_{i: Δ_i=1, Y_i ≤ Y_l} Z_i/den_i
//
// (w ≡ 1 unadjusted). One O(n · width) walk over the tie groups from the
// shortest time up accumulates the inner sums; a tie group's events all count
// for each of its members.
func (c *Cox) PanelResiduals(z []float64, width int) []float64 {
	n := len(c.order)
	checkPanel(n, z, width)
	out := make([]float64, n*width)
	hazard := make([]float64, width)
	for end := n - 1; end >= 0; {
		start := end
		for start > 0 && c.groupEnd[start-1] == end {
			start--
		}
		for _, i := range c.order[start : end+1] {
			if c.ph.Event[i] != 0 {
				for k := range hazard {
					hazard[k] += z[i*width+k] / c.riskDen[i]
				}
			}
		}
		for _, i := range c.order[start : end+1] {
			wi := 1.0
			if c.w != nil {
				wi = c.w[i]
			}
			for k, h := range hazard {
				out[i*width+k] = float64(c.ph.Event[i])*z[i*width+k] - wi*h
			}
		}
		end = start - 1
	}
	return out
}

// checkPanel panics unless z is an n × width panel.
func checkPanel(n int, z []float64, width int) {
	if width < 1 || len(z) != n*width {
		panic(fmt.Sprintf("stats: a panel of %d values for %d patients x %d replicates", len(z), n, width))
	}
}

// resid is the SNP-invariant factor r of a model whose contributions factorise
// as U_ij = G_ij · r_i; embedding it implements ScoreResidualer's two methods.
type resid []float64

// ScoreResiduals implements ScoreResidualer.
func (r resid) ScoreResiduals() []float64 { return r }

// PanelResiduals implements ScoreResidualer: row i of the panel scaled by r_i.
func (r resid) PanelResiduals(z []float64, width int) []float64 {
	checkPanel(len(r), z, width)
	out := make([]float64, len(z))
	for i, ri := range r {
		for k, zik := range z[i*width:][:width] {
			out[i*width+k] = ri * zik
		}
	}
	return out
}

// Variance implements Model with the usual observed-information estimate of
// the null variance of the Cox score:
//
//	V_j = Σ_i Δ_i [ (Σ_{l∈R_i} G_lj²)/b_i − (a_ij/b_i)² ]
func (c *Cox) Variance(g []data.Genotype) float64 {
	n := len(c.order) + 1
	cum := make([]float64, 2*n)
	return c.variance(g, cum[:n], cum[n:])
}

// variance is Variance with the two prefix-sum scratch vectors supplied by
// the caller (n+1 floats each, any contents), as contributions takes cum.
func (c *Cox) variance(g []data.Genotype, cum, cum2 []float64) float64 {
	n := len(c.order)
	checkLens(n, g, nil)
	cum[0], cum2[0] = 0, 0
	for p, i := range c.order {
		gi := float64(g[i])
		wi := 1.0
		if c.w != nil {
			wi = c.w[i]
		}
		cum[p+1] = cum[p] + wi*gi
		cum2[p+1] = cum2[p] + wi*gi*gi
	}
	v := 0.0
	for i := 0; i < n; i++ {
		if c.ph.Event[i] == 0 {
			continue
		}
		end := c.groupEnd[c.pos[i]] + 1
		b := c.riskDen[i]
		mean := cum[end] / b
		v += cum2[end]/b - mean*mean
	}
	return v
}

// Gaussian is the efficient score model for quantitative phenotypes under the
// linear-model null Y_i = μ + β G_ij + ε, β = 0:
//
//	U_ij = G_ij (Y_i − Ȳ)
//
// This is the score for β evaluated at the restricted MLE (μ̂ = Ȳ), the
// statistic behind eQTL-style analyses the paper's conclusion mentions.
type Gaussian struct {
	ph     *data.Phenotype
	meanY  float64
	sigma2 float64 // residual variance estimate Σ(Y−Ȳ)²/n
	resid          // Y_i − Ȳ, the SNP-invariant factor of U_ij
}

// NewGaussian builds a Gaussian score model for the phenotype.
func NewGaussian(ph *data.Phenotype) (*Gaussian, error) {
	n := ph.Patients()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty phenotype")
	}
	var sum float64
	for _, y := range ph.Y {
		sum += y
	}
	mean := sum / float64(n)
	var ss float64
	resid := make([]float64, n)
	for i, y := range ph.Y {
		d := y - mean
		resid[i] = d
		ss += d * d
	}
	return &Gaussian{ph: ph, meanY: mean, sigma2: ss / float64(n), resid: resid}, nil
}

// Name implements Model.
func (g *Gaussian) Name() string { return "gaussian" }

// Patients implements Model.
func (g *Gaussian) Patients() int { return g.ph.Patients() }

// Contributions implements Model.
func (g *Gaussian) Contributions(geno []data.Genotype, u []float64) {
	n := g.ph.Patients()
	checkLens(n, geno, u)
	for i := 0; i < n; i++ {
		u[i] = float64(geno[i]) * (g.ph.Y[i] - g.meanY)
	}
}

// Variance implements Model: Var(U_j) = σ̂² Σ_i (G_ij − Ḡ_j)².
func (g *Gaussian) Variance(geno []data.Genotype) float64 {
	n := g.ph.Patients()
	checkLens(n, geno, nil)
	var sumG float64
	for _, v := range geno {
		sumG += float64(v)
	}
	meanG := sumG / float64(n)
	var ss float64
	for _, v := range geno {
		d := float64(v) - meanG
		ss += d * d
	}
	return g.sigma2 * ss
}

// Binomial is the efficient score model for binary phenotypes (case/control)
// under the logistic-model null, evaluated at the restricted MLE (intercept
// only):
//
//	U_ij = G_ij (Y_i − Ȳ)
//
// The contribution formula coincides with the Gaussian one; the families
// differ in the variance and in input validation (Y must be 0/1).
type Binomial struct {
	ph    *data.Phenotype
	meanY float64
	resid // Y_i − Ȳ
}

// NewBinomial builds a Binomial score model. Every outcome must be 0 or 1 and
// both classes must be present (otherwise the score is degenerate).
func NewBinomial(ph *data.Phenotype) (*Binomial, error) {
	n := ph.Patients()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty phenotype")
	}
	var sum float64
	for i, y := range ph.Y {
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("stats: binomial outcome for patient %d is %v, want 0 or 1", i, y)
		}
		sum += y
	}
	mean := sum / float64(n)
	if mean == 0 || mean == 1 {
		return nil, fmt.Errorf("stats: binomial phenotype has a single class")
	}
	resid := make([]float64, n)
	for i, y := range ph.Y {
		resid[i] = y - mean
	}
	return &Binomial{ph: ph, meanY: mean, resid: resid}, nil
}

// Name implements Model.
func (b *Binomial) Name() string { return "binomial" }

// Patients implements Model.
func (b *Binomial) Patients() int { return b.ph.Patients() }

// Contributions implements Model.
func (b *Binomial) Contributions(geno []data.Genotype, u []float64) {
	n := b.ph.Patients()
	checkLens(n, geno, u)
	for i := 0; i < n; i++ {
		u[i] = float64(geno[i]) * (b.ph.Y[i] - b.meanY)
	}
}

// Variance implements Model: Var(U_j) = Ȳ(1−Ȳ) Σ_i (G_ij − Ḡ_j)².
func (b *Binomial) Variance(geno []data.Genotype) float64 {
	n := b.ph.Patients()
	checkLens(n, geno, nil)
	var sumG float64
	for _, v := range geno {
		sumG += float64(v)
	}
	meanG := sumG / float64(n)
	var ss float64
	for _, v := range geno {
		d := float64(v) - meanG
		ss += d * d
	}
	return b.meanY * (1 - b.meanY) * ss
}

// NewModel constructs a model of the named family ("cox", "gaussian",
// "binomial") for the phenotype.
func NewModel(family string, ph *data.Phenotype) (Model, error) {
	switch family {
	case "cox":
		return NewCox(ph)
	case "gaussian":
		return NewGaussian(ph)
	case "binomial":
		return NewBinomial(ph)
	default:
		return nil, fmt.Errorf("stats: unknown score family %q", family)
	}
}

func checkLens(n int, g []data.Genotype, u []float64) {
	if len(g) != n {
		panic(fmt.Sprintf("stats: %d genotypes for %d patients", len(g), n))
	}
	if u != nil && len(u) != n {
		panic(fmt.Sprintf("stats: contribution buffer has length %d, want %d", len(u), n))
	}
}

// MonteCarloScore computes the Monte Carlo replicate Ũ_j = Σ_i Z_i U_ij from
// cached contributions (Lin 2005). With all weights 1 it reproduces U_j.
func MonteCarloScore(u, z []float64) float64 {
	if len(u) != len(z) {
		panic(fmt.Sprintf("stats: %d contributions but %d Monte Carlo weights", len(u), len(z)))
	}
	s := 0.0
	for i, v := range u {
		s += v * z[i]
	}
	return s
}

// Chi2Stat forms the asymptotic 1-df chi-squared statistic U²/V, returning 0
// when the variance is numerically zero (monomorphic SNP).
func Chi2Stat(score, variance float64) float64 {
	if variance <= 0 || math.IsNaN(variance) {
		return 0
	}
	return score * score / variance
}
