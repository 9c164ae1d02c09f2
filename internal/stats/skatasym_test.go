package stats

import (
	"math"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

func setRowsWeights(r *rng.RNG, n, m int) ([][]data.Genotype, []float64) {
	rows := make([][]data.Genotype, m)
	weights := make([]float64, m)
	for j := range rows {
		rows[j] = randomGenotypes(r, n)
		weights[j] = 0.5 + r.Float64()
	}
	return rows, weights
}

// weightedContributions returns ω_r · u_r for each row, the vectors
// ComputeSKATMoments takes for SKAT.
func weightedContributions(m Model, rows [][]data.Genotype, weights []float64) [][]float64 {
	v := make([][]float64, len(rows))
	for r, g := range rows {
		v[r] = make([]float64, m.Patients())
		m.Contributions(g, v[r])
		for i := range v[r] {
			v[r][i] *= weights[r]
		}
	}
	return v
}

// skatObserved is Σ ω² U² with each U summed in patient order.
func skatObserved(v [][]float64) float64 {
	observed := 0.0
	for _, row := range v {
		s := 0.0
		for _, x := range row {
			s += x
		}
		observed += s * s
	}
	return observed
}

// TestSingleSNPAsymptoticMatchesChiSquare pins the rank-one form — one SNP's
// SKAT statistic, and every burden statistic — to its closed form: the
// quadratic form S = (Σ v)² has the single eigenvalue c₁ = Σ v², and the Liu
// match must collapse to P(χ²₁ > S/c₁), so the burden test needs no route of
// its own. Two thousand random one-vector forms (Cox contributions of random
// genotypes, scaled by random weights over eight orders of magnitude).
func TestSingleSNPAsymptoticMatchesChiSquare(t *testing.T) {
	r := rng.New(1)
	worst := 0.0
	for trial := 0; trial < 2000; trial++ {
		n := 20 + r.Intn(400)
		cox, err := newCox(randomSurvival(r, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		w := math.Pow(10, 8*r.Float64()-4)
		v := weightedContributions(cox, [][]data.Genotype{randomGenotypes(r, n)}, []float64{w})
		mo := ComputeSKATMoments(v)
		q := skatObserved(v)
		want := ChiSquaredSurvival(q/mo.C1, 1)
		got := LiuPValue(q, mo)
		if rel := math.Abs(got-want) / want; rel > worst {
			worst = rel
		}
	}
	// The two tails are computed differently (erfc against the incomplete gamma
	// series); 2.6e-13 on this draw, worst where p is near 1.
	if worst > 1e-12 {
		t.Fatalf("rank-one Liu p-values within %.3g relative of P(χ²₁ > q/c₁), want 1e-12", worst)
	}
}

func TestMomentsMatchEmpiricalResampling(t *testing.T) {
	// The exact first two cumulants must match the Monte Carlo replicate
	// moments of the SKAT statistic: E[S̃] = c1, Var[S̃] = 2c2.
	r := rng.New(2)
	n := 300
	ph := randomSurvival(r, n)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, weights := setRowsWeights(r, n, 6)
	mo := ComputeSKATMoments(weightedContributions(cox, rows, weights))
	// Monte Carlo replicates of S under the null.
	u := make([][]float64, len(rows))
	for j, g := range rows {
		u[j] = make([]float64, n)
		cox.Contributions(g, u[j])
	}
	const b = 4000
	var sum, sumSq float64
	for rep := 0; rep < b; rep++ {
		z := make([]float64, n)
		for i := range z {
			z[i] = r.Normal()
		}
		s := 0.0
		for j := range rows {
			uj := MonteCarloScore(u[j], z)
			s += weights[j] * weights[j] * uj * uj
		}
		sum += s
		sumSq += s * s
	}
	mean := sum / b
	variance := sumSq/b - mean*mean
	if math.Abs(mean-mo.C1) > 0.1*mo.C1 {
		t.Fatalf("MC mean %.1f vs c1 %.1f", mean, mo.C1)
	}
	if math.Abs(variance-2*mo.C2) > 0.25*2*mo.C2 {
		t.Fatalf("MC variance %.1f vs 2c2 %.1f", variance, 2*mo.C2)
	}
}

func TestLiuPValueAgreesWithMonteCarlo(t *testing.T) {
	// On null data the asymptotic p-value must be close to the resampling
	// p-value for the same observed statistic.
	r := rng.New(3)
	n := 400
	ph := randomSurvival(r, n)
	cox, err := newCox(ph, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, weights := setRowsWeights(r, n, 8)
	v := weightedContributions(cox, rows, weights)
	mo := ComputeSKATMoments(v)
	observed := skatObserved(v)
	asymP := LiuPValue(observed, mo)
	u := make([][]float64, len(rows))
	for j, g := range rows {
		u[j] = make([]float64, n)
		cox.Contributions(g, u[j])
	}
	const b = 3000
	exceed := 0
	for rep := 0; rep < b; rep++ {
		z := make([]float64, n)
		for i := range z {
			z[i] = r.Normal()
		}
		s := 0.0
		for j := range rows {
			uj := MonteCarloScore(u[j], z)
			s += weights[j] * weights[j] * uj * uj
		}
		if s >= observed {
			exceed++
		}
	}
	mcP := float64(exceed+1) / float64(b+1)
	if math.Abs(asymP-mcP) > 0.05 {
		t.Fatalf("asymptotic p = %.4f vs Monte Carlo p = %.4f", asymP, mcP)
	}
}

func TestLiuPValueBoundsAndMonotone(t *testing.T) {
	mo := SKATMoments{C1: 10, C2: 30, C3: 100, C4: 400}
	prev := 1.1
	for q := 0.0; q < 200; q += 5 {
		p := LiuPValue(q, mo)
		if p < 0 || p > 1 {
			t.Fatalf("p(%v) = %v out of [0,1]", q, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("p not monotone at %v: %v > %v", q, p, prev)
		}
		prev = p
	}
}

func TestLiuPValueDegenerate(t *testing.T) {
	mo := SKATMoments{}
	if p := LiuPValue(0, mo); p != 1 {
		t.Fatalf("degenerate p at 0 = %v", p)
	}
	if p := LiuPValue(5, mo); p != 0 {
		t.Fatalf("degenerate p at 5 = %v", p)
	}
}

func TestComputeSKATMomentsValidation(t *testing.T) {
	if mo := ComputeSKATMoments(nil); mo != (SKATMoments{}) || LiuPValue(0, mo) != 1 {
		t.Fatalf("no vectors: moments %+v, want the degenerate form", mo)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("vectors of unequal patient counts accepted")
		}
	}()
	ComputeSKATMoments([][]float64{{1, 2, 3}, {1, 2}})
}

func TestNoncentralChiSquared(t *testing.T) {
	// ncp = 0 must agree with the central distribution.
	for _, x := range []float64{0.5, 2, 7.5} {
		got := noncentralChiSquaredSurvival(x, 3, 0)
		want := ChiSquaredSurvival(x, 3)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("ncp=0 at %v: %v vs %v", x, got, want)
		}
	}
	// Independent check for even df: with df = 2, Q(1+k, x/2) is the CDF of
	// a Poisson(x/2) at k, so the mixture collapses to
	// Σ_k Pois(k; ncp/2) · P(Poisson(x/2) <= k) — computable directly.
	x, ncp := 6.0, 4.0
	want := 0.0
	poisK := math.Exp(-ncp / 2)
	for k := 0; k < 60; k++ {
		cdf := 0.0
		poisJ := math.Exp(-x / 2)
		for j := 0; j <= k; j++ {
			cdf += poisJ
			poisJ *= (x / 2) / float64(j+1)
		}
		want += poisK * cdf
		poisK *= (ncp / 2) / float64(k+1)
	}
	got := noncentralChiSquaredSurvival(x, 2, ncp)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("noncentral survival = %v, want %v (Poisson identity)", got, want)
	}
	// Monotone in ncp: more noncentrality pushes mass right.
	if noncentralChiSquaredSurvival(6, 2, 8) <= got {
		t.Fatal("survival not increasing in ncp")
	}
	if p := noncentralChiSquaredSurvival(-1, 2, 4); p != 1 {
		t.Fatalf("negative x survival = %v", p)
	}
}

func TestMatmulSmall(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	b := [][]float64{{5, 6}, {7, 8}}
	c := matmul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c[i][j] != want[i][j] {
				t.Fatalf("matmul = %v", c)
			}
		}
	}
}
