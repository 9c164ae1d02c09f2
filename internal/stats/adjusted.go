// Covariate adjustment of the efficient score models. The paper singles out
// the Monte Carlo method because "it allows for incorporation of baseline
// covariates in the analysis": the nuisance model (outcome on covariates) is
// fitted once under the null, and the per-patient score contributions are
// formed from its residuals — after which Algorithm 3 applies unchanged,
// since the model's residual panel already encodes the adjustment.
//
//   - Gaussian: Y regressed on [1, X] by OLS; U_ij = G_ij (Y_i − Ŷ_i).
//   - Binomial: logistic regression of Y on [1, X]; U_ij = G_ij (Y_i − p̂_i).
//   - Cox: the covariate log-hazard coefficients γ are fitted by
//     Newton–Raphson on the partial likelihood; the SNP score is then the
//     usual risk-set residual with patients weighted by e^{γ·X_l}:
//     U_ij = Δ_i (G_ij − Σ_{l∈R_i} w_l G_lj / Σ_{l∈R_i} w_l).
//
// newLinear fits the first two; this file holds the Cox fit.

package stats

import (
	"fmt"
	"math"
)

// fitRiskWeights fits the null proportional-hazards model with the
// covariates only and sets every patient's risk weight to e^{γ̂·X}.
func (c *Cox) fitRiskWeights(covariates [][]float64) error {
	design, err := designMatrix(covariates, len(c.order))
	if err != nil {
		return err
	}
	// Strip the intercept: the Cox partial likelihood has no intercept
	// (absorbed into the baseline hazard).
	z := make([][]float64, len(design))
	for i, row := range design {
		z[i] = row[1:]
	}
	gamma, err := c.fitCoxMulti(z, 25, 1e-10)
	if err != nil {
		return fmt.Errorf("stats: adjusted cox: %w", err)
	}
	for i, row := range z {
		eta := 0.0
		for a, v := range row {
			eta += gamma[a] * v
		}
		c.w[i] = math.Exp(eta)
	}
	return nil
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
