// Covariate-adjusted efficient score models. The paper singles out the Monte
// Carlo method because "it allows for incorporation of baseline covariates
// in the analysis": the nuisance model (outcome on covariates) is fitted
// once under the null, and the per-patient score contributions are formed
// from its residuals — after which Algorithm 3 applies unchanged, since the
// model's residual panel already encodes the adjustment.
//
//   - Gaussian: Y regressed on [1, X] by OLS; U_ij = G_ij (Y_i − Ŷ_i).
//   - Binomial: logistic regression of Y on [1, X]; U_ij = G_ij (Y_i − p̂_i).
//   - Cox: the covariate log-hazard coefficients γ are fitted by
//     Newton–Raphson on the partial likelihood; the SNP score is then the
//     usual risk-set residual with patients weighted by e^{γ·X_l}:
//     U_ij = Δ_i (G_ij − Σ_{l∈R_i} w_l G_lj / Σ_{l∈R_i} w_l).

package stats

import (
	"fmt"
	"math"

	"sparkscore/internal/data"
)

// NewAdjustedModel constructs a covariate-adjusted model of the named family.
// covariates is an n×p matrix (one row per patient, no intercept column —
// it is added internally). With p = 0 columns it reduces to the unadjusted
// model of the family.
func NewAdjustedModel(family string, ph *data.Phenotype, covariates [][]float64) (Model, error) {
	if len(covariates) == 0 {
		return NewModel(family, ph)
	}
	switch family {
	case "cox":
		return NewCoxAdjusted(ph, covariates)
	case "gaussian":
		return NewGaussianAdjusted(ph, covariates)
	case "binomial":
		return NewBinomialAdjusted(ph, covariates)
	default:
		return nil, fmt.Errorf("stats: unknown score family %q", family)
	}
}

// residualModel is the shared shape of the adjusted Gaussian and Binomial
// models: per-patient residuals r_i with U_ij = G_ij r_i.
type residualModel struct {
	name     string
	resid              // Y_i − Ŷ_i
	variance []float64 // per-patient variance weights for the null variance
}

func (m *residualModel) Name() string  { return m.name }
func (m *residualModel) Patients() int { return len(m.resid) }

func (m *residualModel) Contributions(g []data.Genotype, u []float64) {
	n := len(m.resid)
	checkLens(n, g, u)
	for i := 0; i < n; i++ {
		u[i] = float64(g[i]) * m.resid[i]
	}
}

// Variance uses the plug-in estimate Σ_i v_i (G_ij − Ḡ_j)² with per-patient
// variance weights v_i; it ignores the (second-order) effect of estimating
// the nuisance coefficients, which the resampling path does not rely on.
func (m *residualModel) Variance(g []data.Genotype) float64 {
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
		ss += m.variance[i] * d * d
	}
	return ss
}

// NewGaussianAdjusted builds the covariate-adjusted Gaussian score model.
func NewGaussianAdjusted(ph *data.Phenotype, covariates [][]float64) (Model, error) {
	n := ph.Patients()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty phenotype")
	}
	design, err := designMatrix(covariates, n)
	if err != nil {
		return nil, err
	}
	_, fitted, err := fitOLS(design, ph.Y)
	if err != nil {
		return nil, fmt.Errorf("stats: adjusted gaussian: %w", err)
	}
	m := &residualModel{name: "gaussian", resid: make([]float64, n), variance: make([]float64, n)}
	var ss float64
	for i := range m.resid {
		m.resid[i] = ph.Y[i] - fitted[i]
		ss += m.resid[i] * m.resid[i]
	}
	sigma2 := ss / float64(n)
	for i := range m.variance {
		m.variance[i] = sigma2
	}
	return m, nil
}

// NewBinomialAdjusted builds the covariate-adjusted Binomial (logistic)
// score model. Outcomes must be 0/1 with both classes present.
func NewBinomialAdjusted(ph *data.Phenotype, covariates [][]float64) (Model, error) {
	n := ph.Patients()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty phenotype")
	}
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
	design, err := designMatrix(covariates, n)
	if err != nil {
		return nil, err
	}
	_, fitted, err := fitLogistic(design, ph.Y)
	if err != nil {
		return nil, fmt.Errorf("stats: adjusted binomial: %w", err)
	}
	m := &residualModel{name: "binomial", resid: make([]float64, n), variance: make([]float64, n)}
	for i := range m.resid {
		m.resid[i] = ph.Y[i] - fitted[i]
		m.variance[i] = fitted[i] * (1 - fitted[i])
	}
	return m, nil
}

// NewCoxAdjusted builds the covariate-adjusted Cox score model: it fits the
// null proportional-hazards model with the covariates only, then weights
// every patient's risk-set contribution by e^{γ̂·X}.
func NewCoxAdjusted(ph *data.Phenotype, covariates [][]float64) (*Cox, error) {
	base, err := NewCox(ph)
	if err != nil {
		return nil, err
	}
	design, err := designMatrix(covariates, ph.Patients())
	if err != nil {
		return nil, err
	}
	// Strip the intercept: the Cox partial likelihood has no intercept
	// (absorbed into the baseline hazard).
	z := make([][]float64, len(design))
	for i, row := range design {
		z[i] = row[1:]
	}
	gamma, err := base.fitCoxMulti(z, 25, 1e-10)
	if err != nil {
		return nil, fmt.Errorf("stats: adjusted cox: %w", err)
	}
	w := make([]float64, ph.Patients())
	for i, row := range z {
		eta := 0.0
		for a, v := range row {
			eta += gamma[a] * v
		}
		w[i] = math.Exp(eta)
	}
	return base.withRiskWeights(w), nil
}

// withRiskWeights returns a copy of the model whose risk sets weight patient
// l by w[l] (w = nil restores the unweighted model).
func (c *Cox) withRiskWeights(w []float64) *Cox {
	out := *c
	out.w = w
	out.riskDen = make([]float64, len(c.order))
	cum := make([]float64, len(c.order)+1)
	for p, i := range c.order {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		cum[p+1] = cum[p] + wi
	}
	for p, i := range c.order {
		out.riskDen[i] = cum[c.groupEnd[p]+1]
	}
	return &out
}

// ErrNoConvergence is wrapped by fitCoxMulti when Newton–Raphson fails; the
// paper notes a likelihood fit requires monitoring exactly this failure mode.
var ErrNoConvergence = fmt.Errorf("stats: Newton–Raphson did not converge")

// fitCoxMulti maximises the multivariate Cox partial likelihood over the
// covariates z (n×p, no intercept) by Newton–Raphson, using the risk-set
// structure precomputed by the model.
func (c *Cox) fitCoxMulti(z [][]float64, maxIter int, tol float64) ([]float64, error) {
	n := len(c.order)
	if len(z) != n {
		return nil, fmt.Errorf("stats: %d covariate rows for %d patients", len(z), n)
	}
	p := len(z[0])
	gamma := make([]float64, p)
	eta := make([]float64, n)
	// Prefix sums over sorted order of e, Z·e, and the upper triangle of
	// Z Zᵀ·e, rebuilt per iteration.
	cumE := make([]float64, n+1)
	cumZE := make([][]float64, n+1)
	cumZZE := make([][]float64, n+1)
	tri := p * (p + 1) / 2
	for i := range cumZE {
		cumZE[i] = make([]float64, p)
		cumZZE[i] = make([]float64, tri)
	}
	for iter := 1; iter <= maxIter; iter++ {
		for i := 0; i < n; i++ {
			eta[i] = 0
			for a := 0; a < p; a++ {
				eta[i] += gamma[a] * z[i][a]
			}
		}
		for pos, i := range c.order {
			e := math.Exp(eta[i])
			cumE[pos+1] = cumE[pos] + e
			t := 0
			for a := 0; a < p; a++ {
				cumZE[pos+1][a] = cumZE[pos][a] + z[i][a]*e
				for b := 0; b <= a; b++ {
					cumZZE[pos+1][t] = cumZZE[pos][t] + z[i][a]*z[i][b]*e
					t++
				}
			}
		}
		score := make([]float64, p)
		info := newSquare(p)
		for i := 0; i < n; i++ {
			if c.ph.Event[i] == 0 {
				continue
			}
			end := c.groupEnd[c.pos[i]] + 1
			s0 := cumE[end]
			t := 0
			for a := 0; a < p; a++ {
				ma := cumZE[end][a] / s0
				score[a] += z[i][a] - ma
				for b := 0; b <= a; b++ {
					info[a][b] += cumZZE[end][t]/s0 - ma*(cumZE[end][b]/s0)
					t++
				}
			}
		}
		symmetrise(info)
		if err := cholSolve(info, score); err != nil {
			return nil, fmt.Errorf("%w: singular information at iteration %d", ErrNoConvergence, iter)
		}
		maxStep := 0.0
		for a := 0; a < p; a++ {
			gamma[a] += score[a]
			if s := math.Abs(score[a]); s > maxStep {
				maxStep = s
			}
			if math.IsNaN(gamma[a]) || math.IsInf(gamma[a], 0) {
				return nil, fmt.Errorf("%w: diverged at iteration %d", ErrNoConvergence, iter)
			}
		}
		if maxStep < tol {
			return gamma, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConvergence, maxIter)
}
