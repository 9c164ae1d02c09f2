// Wald and likelihood-ratio comparators for the Cox model. The paper argues
// the efficient score test is preferable precisely because these require
// per-SNP numerical optimisation of
//
//	U_j(β) = Σ_i Δ_i [ G_ij − Σ_l 1(Y_l≥Y_i) G_lj e^{βG_lj} / Σ_l 1(Y_l≥Y_i) e^{βG_lj} ]  =  0
//
// with no closed form, plus per-SNP convergence monitoring. This file
// implements that optimisation (Newton–Raphson on the Cox partial likelihood)
// so the paper's comparison is reproducible: the tests check the fit against
// the score test, and BenchmarkAblationWaldNewton (ablation_test.go) prices it
// beside BenchmarkAblationScoreTest.

package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

// CoxFit is the result of maximising the Cox partial likelihood for one SNP.
type CoxFit struct {
	Beta       float64 // β̂, the log hazard ratio
	StdErr     float64 // sqrt(1/I(β̂))
	Wald       float64 // (β̂/SE)², 1-df chi-squared under H0
	LRT        float64 // 2[l(β̂) − l(0)], 1-df chi-squared under H0
	Iterations int
}

// FitCox fits the single-SNP Cox model by Newton–Raphson. It reuses the risk
// sets precomputed by the Cox score model, giving O(n) cost per iteration.
func (c *Cox) FitCox(g []data.Genotype, maxIter int, tol float64) (CoxFit, error) {
	n := len(c.order)
	checkLens(n, g, nil)
	if maxIter <= 0 {
		maxIter = 25
	}
	if tol <= 0 {
		tol = 1e-10
	}
	beta := 0.0
	fit := CoxFit{}
	ll0 := c.partialLogLik(g, 0)
	for iter := 1; iter <= maxIter; iter++ {
		fit.Iterations = iter
		score, info := c.scoreInfo(g, beta)
		if info <= 0 || math.IsNaN(info) {
			// Degenerate (e.g. monomorphic SNP): no information about β.
			return fit, fmt.Errorf("%w: zero information at iteration %d", ErrNoConvergence, iter)
		}
		step := score / info
		beta += step
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			return fit, fmt.Errorf("%w: diverged at iteration %d", ErrNoConvergence, iter)
		}
		if math.Abs(step) < tol {
			_, infoHat := c.scoreInfo(g, beta)
			fit.Beta = beta
			fit.StdErr = math.Sqrt(1 / infoHat)
			w := beta / fit.StdErr
			fit.Wald = w * w
			fit.LRT = 2 * (c.partialLogLik(g, beta) - ll0)
			return fit, nil
		}
	}
	return fit, fmt.Errorf("%w after %d iterations", ErrNoConvergence, maxIter)
}

// scoreInfo evaluates the partial-likelihood score U(β) and observed
// information I(β) in one O(n) pass over the time-sorted patients. The risk
// set of a patient is a prefix of the descending-time order, so the three
// exponential sums are running prefix accumulations with tie handling.
func (c *Cox) scoreInfo(g []data.Genotype, beta float64) (score, info float64) {
	n := len(c.order)
	// Prefix sums over sorted order of e^{βG}, G e^{βG}, G² e^{βG}.
	cumE := make([]float64, n+1)
	cumGE := make([]float64, n+1)
	cumG2E := make([]float64, n+1)
	for p, i := range c.order {
		gi := float64(g[i])
		e := math.Exp(beta * gi)
		cumE[p+1] = cumE[p] + e
		cumGE[p+1] = cumGE[p] + gi*e
		cumG2E[p+1] = cumG2E[p] + gi*gi*e
	}
	for i := 0; i < n; i++ {
		if c.ph.Event[i] == 0 {
			continue
		}
		end := c.groupEnd[c.pos[i]] + 1
		se := cumE[end]
		mean := cumGE[end] / se
		score += float64(g[i]) - mean
		info += cumG2E[end]/se - mean*mean
	}
	return score, info
}

// partialLogLik evaluates the Cox partial log-likelihood at β.
func (c *Cox) partialLogLik(g []data.Genotype, beta float64) float64 {
	n := len(c.order)
	cumE := make([]float64, n+1)
	for p, i := range c.order {
		cumE[p+1] = cumE[p] + math.Exp(beta*float64(g[i]))
	}
	ll := 0.0
	for i := 0; i < n; i++ {
		if c.ph.Event[i] == 0 {
			continue
		}
		end := c.groupEnd[c.pos[i]] + 1
		ll += beta*float64(g[i]) - math.Log(cumE[end])
	}
	return ll
}

// simulateCoxData draws survival data where the hazard depends on genotype
// through the log hazard ratio beta (inverse-CDF simulation of exponential
// survival with rate λ·e^{βg}).
func simulateCoxData(r *rng.RNG, n int, beta float64) (*data.Phenotype, []data.Genotype) {
	ph := data.NewPhenotype(n)
	g := make([]data.Genotype, n)
	for i := 0; i < n; i++ {
		g[i] = data.Genotype(r.Binomial(2, 0.3))
		rate := math.Exp(beta*float64(g[i])) / 12
		ph.Y[i] = r.Exponential(rate)
		if r.Bernoulli(0.85) {
			ph.Event[i] = 1
		}
	}
	return ph, g
}

func TestFitCoxRecoversNullBeta(t *testing.T) {
	r := rng.New(1)
	ph, g := simulateCoxData(r, 2000, 0)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := cox.FitCox(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta) > 3*fit.StdErr {
		t.Fatalf("null fit gave beta %.4f (SE %.4f)", fit.Beta, fit.StdErr)
	}
}

func TestFitCoxRecoversEffect(t *testing.T) {
	r := rng.New(2)
	const trueBeta = 0.7
	ph, g := simulateCoxData(r, 3000, trueBeta)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := cox.FitCox(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta-trueBeta) > 4*fit.StdErr {
		t.Fatalf("beta = %.4f (SE %.4f), want ~%.2f", fit.Beta, fit.StdErr, trueBeta)
	}
	if fit.Wald <= 0 || fit.LRT <= 0 {
		t.Fatalf("Wald %.2f / LRT %.2f not positive under a strong effect", fit.Wald, fit.LRT)
	}
}

func TestScoreWaldLRTAsymptoticallyAgree(t *testing.T) {
	// The three classical tests are asymptotically equivalent; on a large
	// sample with a moderate effect their chi-squared statistics should be
	// within ~15% of one another.
	r := rng.New(3)
	ph, g := simulateCoxData(r, 4000, 0.3)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	scoreStat := Chi2Stat(Score(cox, g), cox.Variance(g))
	fit, err := cox.FitCox(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, stat := range map[string]float64{"wald": fit.Wald, "lrt": fit.LRT} {
		ratio := stat / scoreStat
		if ratio < 0.85 || ratio > 1.18 {
			t.Errorf("%s/score ratio = %.3f (score %.2f, %s %.2f)", name, ratio, scoreStat, name, stat)
		}
	}
}

func TestFitCoxScoreAtBetaHatIsZero(t *testing.T) {
	r := rng.New(4)
	ph, g := simulateCoxData(r, 500, 0.5)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := cox.FitCox(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	score, _ := cox.scoreInfo(g, fit.Beta)
	if math.Abs(score) > 1e-6 {
		t.Fatalf("score at beta-hat = %v, want ~0", score)
	}
}

func TestFitCoxMonomorphicFailsToConverge(t *testing.T) {
	r := rng.New(5)
	ph := randomSurvival(r, 50)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]data.Genotype, 50) // all zero: no information about beta
	_, err = cox.FitCox(g, 0, 0)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestFitCoxSeparatedDataDiverges(t *testing.T) {
	// Perfect separation: carriers all die immediately, non-carriers are all
	// censored late. The MLE is +inf; Newton must report non-convergence
	// rather than returning garbage.
	n := 40
	ph := data.NewPhenotype(n)
	g := make([]data.Genotype, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			g[i] = 2
			ph.Y[i] = 1 + float64(i)*0.01
			ph.Event[i] = 1
		} else {
			g[i] = 0
			ph.Y[i] = 100 + float64(i)
			ph.Event[i] = 0
		}
	}
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cox.FitCox(g, 15, 0); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestPartialLogLikDecreasesAwayFromMLE(t *testing.T) {
	r := rng.New(6)
	ph, g := simulateCoxData(r, 800, 0.4)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := cox.FitCox(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	atHat := cox.partialLogLik(g, fit.Beta)
	for _, off := range []float64{-0.5, 0.5, 1.5} {
		if ll := cox.partialLogLik(g, fit.Beta+off); ll >= atHat {
			t.Fatalf("logLik(beta+%.1f) = %.4f >= logLik(beta-hat) = %.4f", off, ll, atHat)
		}
	}
}
