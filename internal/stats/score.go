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

// Model is the score model of one phenotype under the null of no association.
// A Model is built once per phenotype (or per permutation of the phenotype)
// and then applied to many SNPs; construction precomputes everything
// SNP-invariant — the paper's observation that "b_i is invariant with respect
// to the SNP and only needs to be calculated once per analysis". All methods
// are safe for concurrent use across SNPs.
//
// Every model's marginal score factorises as U_j = Σ_i G_ij · r_i for a
// SNP-invariant residual vector r, whether or not the per-patient
// contributions do: the Gaussian and Binomial families, plain or
// covariate-adjusted, have U_ij = G_ij · r_i, and Cox has its martingale
// residuals. The factorisation survives reweighting the patients — Lin's
// replicate Σ_i Z_i U_ij is Σ_l G_lj · r̃_l(Z) — so it is all any resampling
// pass needs.
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

	// ScoreResiduals returns r; callers must not mutate it.
	ScoreResiduals() []float64

	// PanelResiduals returns R̃ for an n × width panel of patient weights,
	// patient-major (patient i's weight in replicate k is z[i*width+k]), in
	// the same layout: Σ_i z_ik · U_ij = Σ_l G_lj · R̃_lk for every SNP j. It is
	// r ∘ z where the contributions factorise; see Cox.PanelResiduals.
	PanelResiduals(z []float64, width int) []float64
}

// NewModel constructs a model of the named family ("cox", "gaussian",
// "binomial") for the phenotype, without covariates.
func NewModel(family string, ph *data.Phenotype) (Model, error) {
	return NewAdjustedModel(family, ph, nil)
}

// NewAdjustedModel constructs a covariate-adjusted model of the named family.
// covariates is an n×p matrix (one row per patient, no intercept column —
// it is added internally); no rows at all is the unadjusted model.
func NewAdjustedModel(family string, ph *data.Phenotype, covariates [][]float64) (Model, error) {
	switch family {
	case "cox":
		return newCox(ph, covariates)
	case "gaussian", "binomial":
		return newLinear(family, ph, covariates)
	default:
		return nil, fmt.Errorf("stats: unknown score family %q", family)
	}
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
// b_i = Σ_l 1(Y_l ≥ Y_i) (risk-set size). Adjusted for covariates, patient l
// counts in every risk set with weight w_l = e^{γ̂·X_l}; unadjusted, w_l = 1,
// and every product by it and risk-set sum of it is exact.
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
	// riskDen[i] is the risk-set denominator for patient i: Σ_{l∈R_i} w_l,
	// which is b_i unadjusted.
	riskDen []float64
	// w holds per-patient risk weights e^{γ̂·X}: all ones unadjusted.
	w []float64
}

// newCox builds a Cox score model for the phenotype, adjusted for the
// covariates when there are any. The phenotype must have at least one
// patient; times may tie (risk sets then share members).
func newCox(ph *data.Phenotype, covariates [][]float64) (*Cox, error) {
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
		w:        make([]float64, n),
	}
	for i := range c.order {
		c.order[i] = i
		c.w[i] = 1
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
	}
	if len(covariates) > 0 {
		if err := c.fitRiskWeights(covariates); err != nil {
			return nil, err
		}
	}
	c.weighRiskSets()
	return c, nil
}

// weighRiskSets sets every patient's risk-set denominator to the sum of the
// risk weights over its risk set.
func (c *Cox) weighRiskSets() {
	cum := make([]float64, len(c.order)+1)
	for p, i := range c.order {
		cum[p+1] = cum[p] + c.w[i]
	}
	for p, i := range c.order {
		c.riskDen[i] = cum[c.groupEnd[p]+1]
	}
}

// Name implements Model.
func (c *Cox) Name() string { return "cox" }

// Patients implements Model.
func (c *Cox) Patients() int { return len(c.order) }

// Contributions implements Model in O(n) per SNP; the risk-set genotype
// average is weighted by the risk weights.
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
		cum[p+1] = cum[p] + c.w[i]*float64(g[i])
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

// ScoreResiduals implements Model: the null model's martingale residuals,
// PanelResiduals under unit weights.
func (c *Cox) ScoreResiduals() []float64 {
	ones := make([]float64, len(c.order))
	for i := range ones {
		ones[i] = 1
	}
	return c.PanelResiduals(ones, 1)
}

// PanelResiduals implements Model. The contributions couple patients through
// the risk sets, but their weighted sum does not: exchanging the order of
// summation in
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
			for k, h := range hazard {
				out[i*width+k] = float64(c.ph.Event[i])*z[i*width+k] - c.w[i]*h
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

// Variance implements Model with the usual observed-information estimate of
// the null variance of the Cox score:
//
//	V_j = Σ_i Δ_i [ (Σ_{l∈R_i} w_l G_lj²)/den_i − (Σ_{l∈R_i} w_l G_lj/den_i)² ]
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
		cum[p+1] = cum[p] + c.w[i]*gi
		cum2[p+1] = cum2[p] + c.w[i]*gi*gi
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

// linear is the efficient score model of the Gaussian and Binomial families,
// whose contributions factorise as U_ij = G_ij · r_i with r_i = Y_i − Ŷ_i, and
// whose null variance is scale · Σ_i v_i (G_ij − Ḡ_j)².
//
//   - Unadjusted, Ŷ_i = Ȳ, the restricted MLE of the intercept-only null
//     (the Gaussian linear model Y_i = μ + β G_ij + ε at β = 0, the statistic
//     behind eQTL-style analyses; the logistic model for a 0/1 Y). v is nil (all
//     ones) and scale is the residual variance σ̂² = Σ(Y−Ȳ)²/n or Ȳ(1−Ȳ).
//   - Adjusted, Ŷ_i is the OLS fit of Y on [1, X] or the logistic fit's p̂_i,
//     v_i is σ̂² or p̂_i(1−p̂_i), and scale is 1: the plug-in estimate, which
//     ignores the (second-order) effect of estimating the nuisance
//     coefficients — the resampling path does not rely on it.
type linear struct {
	name  string
	resid []float64 // Y_i − Ŷ_i, the SNP-invariant factor of U_ij
	v     []float64 // per-patient variance weights; nil means all ones
	scale float64
}

// newLinear builds the linear model of the family ("gaussian" or
// "binomial"), adjusted for the covariates when there are any. Binomial
// outcomes must be 0 or 1 with both classes present (otherwise the score is
// degenerate).
func newLinear(family string, ph *data.Phenotype, covariates [][]float64) (*linear, error) {
	n := ph.Patients()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty phenotype")
	}
	binomial := family == "binomial"
	if binomial {
		ones := 0
		for i, y := range ph.Y {
			if y != 0 && y != 1 {
				return nil, fmt.Errorf("stats: binomial outcome for patient %d is %v, want 0 or 1", i, y)
			}
			if y == 1 {
				ones++
			}
		}
		if ones == 0 || ones == n {
			return nil, fmt.Errorf("stats: binomial phenotype has a single class")
		}
	}
	m := &linear{name: family, resid: make([]float64, n), scale: 1}
	if len(covariates) == 0 {
		var sum float64
		for _, y := range ph.Y {
			sum += y
		}
		mean := sum / float64(n)
		var ss float64
		for i, y := range ph.Y {
			d := y - mean
			m.resid[i] = d
			ss += d * d
		}
		m.scale = ss / float64(n)
		if binomial {
			m.scale = mean * (1 - mean)
		}
		return m, nil
	}
	design, err := designMatrix(covariates, n)
	if err != nil {
		return nil, err
	}
	fit := fitOLS
	if binomial {
		fit = fitLogistic
	}
	_, fitted, err := fit(design, ph.Y)
	if err != nil {
		return nil, fmt.Errorf("stats: adjusted %s: %w", family, err)
	}
	var ss float64
	for i := range m.resid {
		m.resid[i] = ph.Y[i] - fitted[i]
		ss += m.resid[i] * m.resid[i]
	}
	m.v = make([]float64, n)
	for i, p := range fitted {
		if binomial {
			m.v[i] = p * (1 - p)
		} else {
			m.v[i] = ss / float64(n)
		}
	}
	return m, nil
}

// Name implements Model.
func (m *linear) Name() string { return m.name }

// Patients implements Model.
func (m *linear) Patients() int { return len(m.resid) }

// Contributions implements Model.
func (m *linear) Contributions(g []data.Genotype, u []float64) {
	n := len(m.resid)
	checkLens(n, g, u)
	for i := 0; i < n; i++ {
		u[i] = float64(g[i]) * m.resid[i]
	}
}

// Variance implements Model: Var(U_j) = scale · Σ_i v_i (G_ij − Ḡ_j)². The
// explicit conversions round each term before its add, as
// SKATStatistic.AddPerSNP does: without them the spec lets a compiler fuse
// the last multiply and the add into one FMA, and the wide kernel, which adds
// precomputed rounded squares, would no longer match.
func (m *linear) Variance(g []data.Genotype) float64 {
	n := len(m.resid)
	checkLens(n, g, nil)
	var sumG float64
	for _, v := range g {
		sumG += float64(v)
	}
	meanG := sumG / float64(n)
	var ss float64
	for i, v := range g {
		d := float64(v) - meanG
		if m.v == nil {
			ss += float64(d * d)
		} else {
			ss += float64(m.v[i] * d * d)
		}
	}
	return m.scale * ss
}

// ScoreResiduals implements Model.
func (m *linear) ScoreResiduals() []float64 { return m.resid }

// PanelResiduals implements Model: row i of the panel scaled by r_i.
func (m *linear) PanelResiduals(z []float64, width int) []float64 {
	checkPanel(len(m.resid), z, width)
	out := make([]float64, len(z))
	for i, ri := range m.resid {
		for k, zik := range z[i*width:][:width] {
			out[i*width+k] = ri * zik
		}
	}
	return out
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
