package stats

import (
	"math"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

func TestCholSolveKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
	a := [][]float64{{4, 2}, {2, 3}}
	b := []float64{10, 8}
	if err := cholSolve(a, b); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-1.75) > 1e-12 || math.Abs(b[1]-1.5) > 1e-12 {
		t.Fatalf("x = %v, want [1.75 1.5]", b)
	}
}

func TestCholSolveRejectsNonPD(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if err := cholSolve(a, []float64{1, 1}); err == nil {
		t.Fatal("non-positive-definite matrix accepted")
	}
	// Perfectly collinear design.
	a = [][]float64{{1, 1}, {1, 1}}
	if err := cholSolve(a, []float64{1, 1}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestFitOLSExact(t *testing.T) {
	// y = 2 + 3x, noiseless: residuals must vanish.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11}
	coef, fitted, err := fitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-10 || math.Abs(coef[1]-3) > 1e-10 {
		t.Fatalf("coef = %v, want [2 3]", coef)
	}
	for i := range y {
		if math.Abs(fitted[i]-y[i]) > 1e-10 {
			t.Fatalf("fitted[%d] = %v, want %v", i, fitted[i], y[i])
		}
	}
}

func TestFitOLSRecoversNoisyCoefficients(t *testing.T) {
	r := rng.New(1)
	n := 5000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := r.Normal()
		x[i] = []float64{1, c}
		y[i] = 1.5 - 2*c + 0.3*r.Normal()
	}
	coef, _, err := fitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-1.5) > 0.05 || math.Abs(coef[1]+2) > 0.05 {
		t.Fatalf("coef = %v, want ~[1.5 -2]", coef)
	}
}

func TestFitLogisticRecoversCoefficients(t *testing.T) {
	r := rng.New(2)
	n := 20000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := r.Normal()
		x[i] = []float64{1, c}
		p := expit(-0.5 + 1.2*c)
		if r.Bernoulli(p) {
			y[i] = 1
		}
	}
	coef, fitted, err := fitLogistic(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]+0.5) > 0.1 || math.Abs(coef[1]-1.2) > 0.1 {
		t.Fatalf("coef = %v, want ~[-0.5 1.2]", coef)
	}
	for i := range fitted {
		if fitted[i] <= 0 || fitted[i] >= 1 {
			t.Fatalf("fitted[%d] = %v outside (0,1)", i, fitted[i])
		}
	}
}

func TestExpit(t *testing.T) {
	if got := expit(0); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("expit(0) = %v", got)
	}
	if got := expit(700); got != 1 && math.Abs(got-1) > 1e-12 {
		t.Fatalf("expit(700) = %v", got)
	}
	if got := expit(-700); got < 0 || got > 1e-300 {
		// must underflow gracefully, not NaN
		t.Fatalf("expit(-700) = %v", got)
	}
	if math.IsNaN(expit(-1e6)) || math.IsNaN(expit(1e6)) {
		t.Fatal("expit produced NaN at extremes")
	}
}

// confoundedData simulates a confounder C driving both the genotype and the
// outcome, so the unadjusted score test sees a spurious association.
func confoundedData(r *rng.RNG, n int) (c []float64, g []data.Genotype) {
	c = make([]float64, n)
	g = make([]data.Genotype, n)
	for i := 0; i < n; i++ {
		c[i] = r.Normal()
		p := expit(0.8 * c[i]) // allele frequency rises with the confounder
		g[i] = data.Genotype(r.Binomial(2, 0.1+0.8*p/2))
	}
	return c, g
}

func TestGaussianAdjustedRemovesConfounding(t *testing.T) {
	r := rng.New(3)
	n := 4000
	c, g := confoundedData(r, n)
	ph := data.NewPhenotype(n)
	cov := make([][]float64, n)
	for i := 0; i < n; i++ {
		ph.Y[i] = 2*c[i] + r.Normal() // outcome depends only on the confounder
		ph.Event[i] = 1
		cov[i] = []float64{c[i]}
	}
	unadj, err := newLinear("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := newLinear("gaussian", ph, cov)
	if err != nil {
		t.Fatal(err)
	}
	unadjStat := Chi2Stat(Score(unadj, g), unadj.Variance(g))
	adjStat := Chi2Stat(Score(adj, g), adj.Variance(g))
	if unadjStat < 20 {
		t.Fatalf("confounding too weak to test: unadjusted chi2 = %.2f", unadjStat)
	}
	if adjStat > unadjStat/5 {
		t.Fatalf("adjustment left chi2 = %.2f (unadjusted %.2f)", adjStat, unadjStat)
	}
	if p := ChiSquaredSurvival(adjStat, 1); p < 0.001 {
		t.Fatalf("adjusted test still significant: p = %g", p)
	}
}

func TestBinomialAdjustedRemovesConfounding(t *testing.T) {
	r := rng.New(4)
	n := 6000
	c, g := confoundedData(r, n)
	ph := data.NewPhenotype(n)
	cov := make([][]float64, n)
	for i := 0; i < n; i++ {
		if r.Bernoulli(expit(1.5 * c[i])) {
			ph.Y[i] = 1
		}
		cov[i] = []float64{c[i]}
	}
	unadj, err := newLinear("binomial", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := newLinear("binomial", ph, cov)
	if err != nil {
		t.Fatal(err)
	}
	unadjStat := Chi2Stat(Score(unadj, g), unadj.Variance(g))
	adjStat := Chi2Stat(Score(adj, g), adj.Variance(g))
	if unadjStat < 20 {
		t.Fatalf("confounding too weak to test: unadjusted chi2 = %.2f", unadjStat)
	}
	if adjStat > unadjStat/5 {
		t.Fatalf("adjustment left chi2 = %.2f (unadjusted %.2f)", adjStat, unadjStat)
	}
}

func TestCoxAdjustedRemovesConfounding(t *testing.T) {
	r := rng.New(5)
	n := 4000
	c, g := confoundedData(r, n)
	ph := data.NewPhenotype(n)
	cov := make([][]float64, n)
	for i := 0; i < n; i++ {
		rate := math.Exp(0.8*c[i]) / 12 // hazard depends only on the confounder
		ph.Y[i] = r.Exponential(rate)
		if r.Bernoulli(0.85) {
			ph.Event[i] = 1
		}
		cov[i] = []float64{c[i]}
	}
	unadj, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := newCox(ph, cov)
	if err != nil {
		t.Fatal(err)
	}
	unadjStat := Chi2Stat(Score(unadj, g), unadj.Variance(g))
	adjStat := Chi2Stat(Score(adj, g), adj.Variance(g))
	if unadjStat < 20 {
		t.Fatalf("confounding too weak to test: unadjusted chi2 = %.2f", unadjStat)
	}
	if adjStat > unadjStat/5 {
		t.Fatalf("adjustment left chi2 = %.2f (unadjusted %.2f)", adjStat, unadjStat)
	}
}

func TestFitCoxMultiRecoversGamma(t *testing.T) {
	r := rng.New(6)
	n := 5000
	ph := data.NewPhenotype(n)
	z := make([][]float64, n)
	trueGamma := []float64{0.6, -0.4}
	for i := 0; i < n; i++ {
		z[i] = []float64{r.Normal(), r.Normal()}
		rate := math.Exp(trueGamma[0]*z[i][0]+trueGamma[1]*z[i][1]) / 12
		ph.Y[i] = r.Exponential(rate)
		if r.Bernoulli(0.85) {
			ph.Event[i] = 1
		}
	}
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := cox.fitCoxMulti(z, 25, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for a := range trueGamma {
		if math.Abs(gamma[a]-trueGamma[a]) > 0.1 {
			t.Fatalf("gamma = %v, want ~%v", gamma, trueGamma)
		}
	}
}

func TestCoxZeroCovariateEffectMatchesUnadjusted(t *testing.T) {
	// Covariates unrelated to the outcome: γ̂ ≈ 0, so adjusted and unadjusted
	// contributions should nearly coincide.
	r := rng.New(7)
	n := 3000
	ph := randomSurvival(r, n)
	cov := make([][]float64, n)
	for i := range cov {
		cov[i] = []float64{r.Normal()}
	}
	g := randomGenotypes(r, n)
	unadj, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := newCox(ph, cov)
	if err != nil {
		t.Fatal(err)
	}
	su, sa := Score(unadj, g), Score(adj, g)
	sd := math.Sqrt(unadj.Variance(g))
	if math.Abs(su-sa) > 0.25*sd {
		t.Fatalf("adjusted score %v drifted from unadjusted %v (sd %v) under a null covariate", sa, su, sd)
	}
}

// withRiskWeights returns a copy of the model whose risk sets weight patient
// l by w[l].
func withRiskWeights(c *Cox, w []float64) *Cox {
	out := *c
	out.w, out.riskDen = w, make([]float64, len(w))
	out.weighRiskSets()
	return &out
}

// TestWithRiskWeightsUnit checks that the unadjusted Cox model's unit risk
// weights are exact: every risk-set weight sum is the risk-set size b_i to the
// bit, and the contributions are the unweighted naive form's.
func TestWithRiskWeightsUnit(t *testing.T) {
	r := rng.New(8)
	ph := randomSurvival(r, 100)
	g := randomGenotypes(r, 100)
	base, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, den := range base.riskDen {
		b := 0
		for _, y := range ph.Y {
			if y >= ph.Y[i] {
				b++
			}
		}
		if den != float64(b) {
			t.Fatalf("patient %d: risk-set weight sum %v, risk-set size %d", i, den, b)
		}
	}
	u1 := make([]float64, 100)
	u2 := make([]float64, 100)
	base.Contributions(g, u1)
	NaiveCoxContributions(ph, g, u2)
	for i := range u1 {
		if math.Abs(u1[i]-u2[i]) > 1e-12 {
			t.Fatalf("unit weights changed contribution %d: %v vs %v", i, u1[i], u2[i])
		}
	}
}

func TestNewAdjustedModelDispatch(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{0, 1, 1, 0}, Event: []uint8{1, 0, 1, 1}}
	cov := [][]float64{{0.1}, {0.2}, {-0.3}, {0.4}}
	for _, fam := range []string{"cox", "gaussian", "binomial"} {
		m, err := NewAdjustedModel(fam, ph, cov)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if m.Name() != fam {
			t.Fatalf("Name() = %q", m.Name())
		}
	}
	if _, err := NewAdjustedModel("poisson", ph, cov); err == nil {
		t.Fatal("unknown family accepted")
	}
	// Empty covariates fall through to the unadjusted model.
	m, err := NewAdjustedModel("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lin, ok := m.(*linear); !ok || lin.v != nil {
		t.Fatalf("nil covariates produced %T %+v, want an unadjusted linear model", m, m)
	}
}

func TestAdjustedModelValidation(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{0, 1, 1}, Event: []uint8{1, 1, 1}}
	// Ragged covariates.
	if _, err := newLinear("gaussian", ph, [][]float64{{1}, {1, 2}, {1}}); err == nil {
		t.Fatal("ragged covariates accepted")
	}
	// Wrong row count.
	if _, err := newCox(ph, [][]float64{{1}}); err == nil {
		t.Fatal("short covariate matrix accepted")
	}
	// Collinear covariates (duplicate column) must fail the fit.
	if _, err := newLinear("gaussian", ph, [][]float64{{1, 1}, {2, 2}, {3, 3}}); err == nil {
		t.Fatal("collinear covariates accepted")
	}
	// Single-class binomial.
	allOnes := &data.Phenotype{Y: []float64{1, 1, 1}, Event: []uint8{0, 0, 0}}
	if _, err := newLinear("binomial", allOnes, [][]float64{{1}, {2}, {3}}); err == nil {
		t.Fatal("single-class binomial accepted")
	}
}

// naiveWeightedCoxContributions is the O(n²) literal form of the weighted
// risk-set residual, the referee for the suffix-sum implementation used by
// the covariate-adjusted Cox model.
func naiveWeightedCoxContributions(ph *data.Phenotype, w []float64, g []data.Genotype, u []float64) {
	n := ph.Patients()
	for i := 0; i < n; i++ {
		if ph.Event[i] == 0 {
			u[i] = 0
			continue
		}
		var a, b float64
		for l := 0; l < n; l++ {
			if ph.Y[l] >= ph.Y[i] {
				a += w[l] * float64(g[l])
				b += w[l]
			}
		}
		u[i] = float64(g[i]) - a/b
	}
}

func TestWeightedCoxMatchesNaive(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		rr := r.Split(uint64(trial))
		n := rr.Intn(50) + 2
		ph := randomSurvival(rr, n)
		g := randomGenotypes(rr, n)
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Exp(rr.Normal() * 0.5)
		}
		base, err := newCox(ph, nil)
		if err != nil {
			t.Fatal(err)
		}
		weighted := withRiskWeights(base, w)
		fast := make([]float64, n)
		slow := make([]float64, n)
		weighted.Contributions(g, fast)
		naiveWeightedCoxContributions(ph, w, g, slow)
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-9 {
				t.Fatalf("trial %d: weighted contribution %d = %v, naive %v", trial, i, fast[i], slow[i])
			}
		}
	}
}
