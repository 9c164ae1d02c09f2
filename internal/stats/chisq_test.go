package stats

import (
	"math"
	"testing"
)

func TestChiSquaredKnownQuantiles(t *testing.T) {
	cases := []struct {
		x    float64
		df   int
		want float64
		tol  float64
	}{
		{3.841458820694124, 1, 0.05, 1e-12},
		{6.634896601021213, 1, 0.01, 1e-12},
		{2.705543454095404, 1, 0.10, 1e-12},
		{10.827566170662733, 1, 0.001, 1e-12},
		{5.991464547107979, 2, 0.05, 1e-9},
		{7.814727903251179, 3, 0.05, 1e-9},
	}
	for _, c := range cases {
		got := ChiSquaredSurvival(c.x, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("P(chi2_%d > %.4f) = %.10f, want %.4f", c.df, c.x, got, c.want)
		}
	}
}

func TestChiSquaredDF2IsExponential(t *testing.T) {
	// For df = 2 the survival function is exactly exp(-x/2).
	for _, x := range []float64{0.1, 1, 2, 5, 10, 30} {
		got := ChiSquaredSurvival(x, 2)
		want := math.Exp(-x / 2)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("df=2 survival at %.1f: %.14f, want %.14f", x, got, want)
		}
	}
}

func TestChiSquaredBoundaries(t *testing.T) {
	if got := ChiSquaredSurvival(0, 1); got != 1 {
		t.Fatalf("survival at 0 = %v, want 1", got)
	}
	if got := ChiSquaredSurvival(-3, 1); got != 1 {
		t.Fatalf("survival at negative = %v, want 1", got)
	}
	if got := ChiSquaredSurvival(1e4, 1); got > 1e-100 {
		t.Fatalf("far tail = %v, want ~0", got)
	}
	if got := ChiSquaredSurvival(math.Inf(1), 1); got != 0 {
		t.Fatalf("survival at +Inf = %v, want 0", got)
	}
	if got := ChiSquaredSurvival(math.NaN(), 1); !math.IsNaN(got) {
		t.Fatalf("survival at NaN = %v, want NaN", got)
	}
	// e^-700 is still a normal float64: the tail must not underflow early.
	if got := ChiSquaredSurvival(1400, 1); got <= 0 {
		t.Fatalf("survival at 1400 = %v, want > 0", got)
	}
}

// TestChiSquaredDF1ClosedForm pins the df = 1 closed form erfc(√(x/2)) to the
// incomplete-gamma evaluation every other df uses, on a log grid from deep in
// the body (p ≈ 1) to the edge of float64's range (p ≈ 1e-306), and checks it
// is strictly decreasing there.
func TestChiSquaredDF1ClosedForm(t *testing.T) {
	const lo, hi, steps = 1e-12, 1400.0, 2000
	prev := 1.0
	for i := 0; i <= steps; i++ {
		x := lo * math.Pow(hi/lo, float64(i)/steps)
		got, want := ChiSquaredSurvival(x, 1), regIncGammaQ(0.5, x/2)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("x = %g: closed form %g, incomplete gamma %g (relative %.2g)", x, got, want, rel)
		}
		if got >= prev {
			t.Errorf("x = %g: survival %g did not fall below %g", x, got, prev)
		}
		prev = got
	}
}

func TestChiSquaredMonotone(t *testing.T) {
	prev := 1.1
	for x := 0.0; x <= 20; x += 0.25 {
		p := ChiSquaredSurvival(x, 1)
		if p > prev+1e-12 {
			t.Fatalf("survival not monotone at x=%v: %v > %v", x, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("survival out of [0,1] at x=%v: %v", x, p)
		}
		prev = p
	}
}

func TestChiSquaredPanicsOnBadDF(t *testing.T) {
	assertPanics(t, "df=0", func() { ChiSquaredSurvival(1, 0) })
}
