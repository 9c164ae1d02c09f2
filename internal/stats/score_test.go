package stats

import (
	"math"
	"testing"
	"testing/quick"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

// randomSurvival builds a random survival phenotype with ties (times rounded
// to halves so risk-set tie handling is exercised).
func randomSurvival(r *rng.RNG, n int) *data.Phenotype {
	ph := data.NewPhenotype(n)
	for i := 0; i < n; i++ {
		ph.Y[i] = math.Round(r.Exponential(1.0/12)*2) / 2
		if r.Bernoulli(0.85) {
			ph.Event[i] = 1
		}
	}
	return ph
}

func randomGenotypes(r *rng.RNG, n int) []data.Genotype {
	g := make([]data.Genotype, n)
	rho := 0.05 + 0.45*r.Float64()
	for i := range g {
		g[i] = data.Genotype(r.Binomial(2, rho))
	}
	return g
}

func TestCoxMatchesNaive(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(60) + 2
		ph := randomSurvival(rr, n)
		cox, err := newCox(ph, nil)
		if err != nil {
			return false
		}
		g := randomGenotypes(rr, n)
		fast := make([]float64, n)
		slow := make([]float64, n)
		cox.Contributions(g, fast)
		NaiveCoxContributions(ph, g, slow)
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoxCensoredContributeZero(t *testing.T) {
	r := rng.New(2)
	ph := randomSurvival(r, 40)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := randomGenotypes(r, 40)
	u := make([]float64, 40)
	cox.Contributions(g, u)
	for i := range u {
		if ph.Event[i] == 0 && u[i] != 0 {
			t.Fatalf("censored patient %d has contribution %v", i, u[i])
		}
	}
}

func TestCoxHandlesAllTied(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{5, 5, 5, 5}, Event: []uint8{1, 1, 0, 1}}
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := []data.Genotype{0, 1, 2, 1}
	u := make([]float64, 4)
	cox.Contributions(g, u)
	// All risk sets are the whole cohort: a/b = mean genotype = 1.
	want := []float64{-1, 0, 0, 0}
	for i := range u {
		if math.Abs(u[i]-want[i]) > 1e-12 {
			t.Fatalf("u = %v, want %v", u, want)
		}
	}
}

func TestCoxSmallestTimeSeesFullRiskSet(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{1, 2, 3}, Event: []uint8{1, 1, 1}}
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := []data.Genotype{2, 0, 1}
	u := make([]float64, 3)
	cox.Contributions(g, u)
	// Patient 0 (earliest event): risk set is everyone, a=3, b=3.
	if math.Abs(u[0]-(2-1)) > 1e-12 {
		t.Fatalf("u[0] = %v, want 1", u[0])
	}
	// Patient 2 (latest): risk set is itself, U = g - g = 0.
	if u[2] != 0 {
		t.Fatalf("u[2] = %v, want 0", u[2])
	}
}

func TestCoxMonomorphicSNPScoresZero(t *testing.T) {
	r := rng.New(3)
	ph := randomSurvival(r, 30)
	cox, _ := newCox(ph, nil)
	g := make([]data.Genotype, 30)
	for i := range g {
		g[i] = 2
	}
	if s := Score(cox, g); math.Abs(s) > 1e-12 {
		t.Fatalf("monomorphic SNP has score %v", s)
	}
	if v := cox.Variance(g); math.Abs(v) > 1e-12 {
		t.Fatalf("monomorphic SNP has variance %v", v)
	}
}

func TestCoxVarianceNonNegative(t *testing.T) {
	r := rng.New(4)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(50) + 2
		ph := randomSurvival(rr, n)
		cox, err := newCox(ph, nil)
		if err != nil {
			return false
		}
		return cox.Variance(randomGenotypes(rr, n)) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoxRejectsEmptyPhenotype(t *testing.T) {
	if _, err := newCox(data.NewPhenotype(0), nil); err == nil {
		t.Fatal("empty phenotype accepted")
	}
}

func TestCoxConcurrentContributions(t *testing.T) {
	r := rng.New(5)
	n := 100
	ph := randomSurvival(r, n)
	cox, _ := newCox(ph, nil)
	g := randomGenotypes(r, n)
	want := make([]float64, n)
	cox.Contributions(g, want)
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			u := make([]float64, n)
			for k := 0; k < 50; k++ {
				cox.Contributions(g, u)
			}
			ok := true
			for i := range u {
				if u[i] != want[i] {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent Contributions produced different results")
		}
	}
}

func TestGaussianConstantGenotypeScoresZero(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{1, 4, 2, 9}, Event: []uint8{1, 1, 1, 1}}
	m, err := newLinear("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := []data.Genotype{1, 1, 1, 1}
	if s := Score(m, g); math.Abs(s) > 1e-12 {
		t.Fatalf("constant genotype score %v, want 0", s)
	}
}

func TestGaussianHandComputed(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{0, 2, 4}, Event: []uint8{1, 1, 1}} // mean 2
	m, _ := newLinear("gaussian", ph, nil)
	g := []data.Genotype{2, 0, 1}
	u := make([]float64, 3)
	m.Contributions(g, u)
	want := []float64{2 * (0 - 2), 0, 1 * (4 - 2)}
	for i := range u {
		if u[i] != want[i] {
			t.Fatalf("u = %v, want %v", u, want)
		}
	}
	// Variance: σ̂² = (4+0+4)/3, Σ(g-ḡ)² = (1+1+0) = 2.
	wantVar := (8.0 / 3.0) * 2
	if v := m.Variance(g); math.Abs(v-wantVar) > 1e-12 {
		t.Fatalf("variance %v, want %v", v, wantVar)
	}
}

func TestBinomialValidation(t *testing.T) {
	if _, err := newLinear("binomial", &data.Phenotype{Y: []float64{0, 0.5}, Event: []uint8{0, 0}}, nil); err == nil {
		t.Fatal("non-binary outcome accepted")
	}
	if _, err := newLinear("binomial", &data.Phenotype{Y: []float64{1, 1}, Event: []uint8{0, 0}}, nil); err == nil {
		t.Fatal("single-class outcome accepted")
	}
	if _, err := newLinear("binomial", &data.Phenotype{Y: []float64{0, 1}, Event: []uint8{0, 0}}, nil); err != nil {
		t.Fatalf("valid binary phenotype rejected: %v", err)
	}
}

func TestBinomialHandComputed(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{1, 0, 1, 0}, Event: []uint8{0, 0, 0, 0}} // mean 0.5
	m, _ := newLinear("binomial", ph, nil)
	g := []data.Genotype{2, 2, 0, 1}
	u := make([]float64, 4)
	m.Contributions(g, u)
	want := []float64{1, -1, 0, -0.5}
	for i := range u {
		if u[i] != want[i] {
			t.Fatalf("u = %v, want %v", u, want)
		}
	}
}

func TestNewModelDispatch(t *testing.T) {
	ph := &data.Phenotype{Y: []float64{0, 1, 1}, Event: []uint8{1, 0, 1}}
	for _, fam := range []string{"cox", "gaussian", "binomial"} {
		m, err := NewModel(fam, ph)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if m.Name() != fam {
			t.Fatalf("Name() = %q, want %q", m.Name(), fam)
		}
		if m.Patients() != 3 {
			t.Fatalf("%s: Patients() = %d", fam, m.Patients())
		}
	}
	if _, err := NewModel("poisson", ph); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestMonteCarloScoreUnitWeightsReproducesScore(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(40) + 2
		ph := randomSurvival(rr, n)
		cox, err := newCox(ph, nil)
		if err != nil {
			return false
		}
		g := randomGenotypes(rr, n)
		u := make([]float64, n)
		cox.Contributions(g, u)
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		return math.Abs(MonteCarloScore(u, ones)-Score(cox, g)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMonteCarloScoreLinearity(t *testing.T) {
	u := []float64{1, -2, 3}
	z := []float64{0.5, 0.5, 0.5}
	if got := MonteCarloScore(u, z); math.Abs(got-1) > 1e-12 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestChi2StatGuards(t *testing.T) {
	if Chi2Stat(2, 0) != 0 {
		t.Fatal("zero variance did not yield 0")
	}
	if Chi2Stat(2, math.NaN()) != 0 {
		t.Fatal("NaN variance did not yield 0")
	}
	if got := Chi2Stat(3, 4); math.Abs(got-2.25) > 1e-12 {
		t.Fatalf("Chi2Stat(3,4) = %v, want 2.25", got)
	}
}

func TestScorePermutationDistributionCentred(t *testing.T) {
	// Under permutation of the phenotype, the mean of the permuted scores
	// should be near zero relative to their spread — a sanity check that the
	// score is correctly centred for resampling inference.
	r := rng.New(7)
	n := 200
	ph := randomSurvival(r, n)
	g := randomGenotypes(r, n)
	const b = 300
	var sum, sumSq float64
	for rep := 0; rep < b; rep++ {
		perm := r.Perm(n)
		cox, err := newCox(ph.Permuted(perm), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := Score(cox, g)
		sum += s
		sumSq += s * s
	}
	mean := sum / b
	sd := math.Sqrt(sumSq/b - mean*mean)
	if sd == 0 {
		t.Fatal("degenerate permutation distribution")
	}
	if math.Abs(mean) > 4*sd/math.Sqrt(b) {
		t.Fatalf("permutation score mean %.4f too far from 0 (sd %.4f)", mean, sd)
	}
}

func TestRareVariantTypeIError(t *testing.T) {
	// The paper's motivating claim (Section I): "the type I error rate can
	// be severely inflated for SNPs that have a low mutation rate" under
	// asymptotics, which is why resampling is used. Reproduce it: at
	// MAF 0.005 with n=150, the asymptotic chi-square test rejects a true
	// null far above the nominal 5%, while the permutation test stays at or
	// below it (conservative through discreteness).
	if testing.Short() {
		t.Skip("simulation study")
	}
	r := rng.New(1)
	const (
		n      = 150
		trials = 800
		b      = 99
		alpha  = 0.05
	)
	rejAsym, rejPerm, informative := 0, 0, 0
	u := make([]float64, n)
	ub := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		rr := r.Split(uint64(trial))
		ph := data.NewPhenotype(n)
		g := make([]data.Genotype, n)
		carriers := 0
		for i := 0; i < n; i++ {
			ph.Y[i] = rr.Exponential(1.0 / 12)
			if rr.Bernoulli(0.5) {
				ph.Event[i] = 1
			}
			g[i] = data.Genotype(rr.Binomial(2, 0.005))
			if g[i] > 0 {
				carriers++
			}
		}
		if carriers == 0 {
			continue
		}
		informative++
		cox, err := newCox(ph, nil)
		if err != nil {
			t.Fatal(err)
		}
		cox.Contributions(g, u)
		var s float64
		for _, v := range u {
			s += v
		}
		if ChiSquaredSurvival(Chi2Stat(s, cox.Variance(g)), 1) < alpha {
			rejAsym++
		}
		exceed := 0
		for rep := 0; rep < b; rep++ {
			rb := rr.Split(uint64(rep) + 1000000)
			coxb, err := newCox(ph.Permuted(rb.Perm(n)), nil)
			if err != nil {
				t.Fatal(err)
			}
			coxb.Contributions(g, ub)
			var sb float64
			for _, v := range ub {
				sb += v
			}
			if sb*sb >= s*s {
				exceed++
			}
		}
		if float64(exceed+1)/float64(b+1) < alpha {
			rejPerm++
		}
	}
	asymRate := float64(rejAsym) / float64(informative)
	permRate := float64(rejPerm) / float64(informative)
	if asymRate < 0.07 {
		t.Errorf("asymptotic type I error %.4f — expected inflation above 0.07 at rare variants", asymRate)
	}
	if permRate > 0.07 {
		t.Errorf("permutation type I error %.4f — expected control at/below nominal 0.05", permRate)
	}
	if permRate >= asymRate {
		t.Errorf("permutation (%.4f) not better calibrated than asymptotics (%.4f)", permRate, asymRate)
	}
}

func TestCoxInvariantToMonotoneTimeTransform(t *testing.T) {
	// The Cox score depends on survival times only through their ranks, so
	// any strictly increasing transformation of Y leaves every contribution
	// unchanged.
	r := rng.New(31)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(60) + 2
		ph := randomSurvival(rr, n)
		g := randomGenotypes(rr, n)
		transformed := data.NewPhenotype(n)
		copy(transformed.Event, ph.Event)
		for i, y := range ph.Y {
			transformed.Y[i] = math.Exp(y/10) + 3 // strictly increasing
		}
		a, err := newCox(ph, nil)
		if err != nil {
			return false
		}
		b, err := newCox(transformed, nil)
		if err != nil {
			return false
		}
		ua := make([]float64, n)
		ub := make([]float64, n)
		a.Contributions(g, ua)
		b.Contributions(g, ub)
		for i := range ua {
			if math.Abs(ua[i]-ub[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianScoreScaleCovariance(t *testing.T) {
	// Scaling the outcome by c scales every Gaussian contribution by c;
	// shifting it leaves them unchanged (the score centres on the mean).
	r := rng.New(37)
	n := 80
	ph := randomSurvival(r, n)
	g := randomGenotypes(r, n)
	base, err := newLinear("gaussian", ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	ub := make([]float64, n)
	base.Contributions(g, ub)
	scaled := data.NewPhenotype(n)
	copy(scaled.Event, ph.Event)
	for i, y := range ph.Y {
		scaled.Y[i] = 4*y + 100
	}
	m2, err := newLinear("gaussian", scaled, nil)
	if err != nil {
		t.Fatal(err)
	}
	us := make([]float64, n)
	m2.Contributions(g, us)
	for i := range ub {
		if math.Abs(us[i]-4*ub[i]) > 1e-9 {
			t.Fatalf("contribution %d: %v, want %v", i, us[i], 4*ub[i])
		}
	}
}

// NaiveCoxContributions computes the Cox contributions with the literal O(n²)
// double loop from the formula: the oracle the suffix-sum Cox is tested
// against, and the other side of BenchmarkAblationCoxSuffixSum.
func NaiveCoxContributions(ph *data.Phenotype, g []data.Genotype, u []float64) {
	n := ph.Patients()
	checkLens(n, g, u)
	for i := 0; i < n; i++ {
		if ph.Event[i] == 0 {
			u[i] = 0
			continue
		}
		var a, b float64
		for l := 0; l < n; l++ {
			if ph.Y[l] >= ph.Y[i] {
				a += float64(g[l])
				b++
			}
		}
		u[i] = float64(g[i]) - a/b
	}
}
