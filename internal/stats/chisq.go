// Chi-squared tail probabilities for the asymptotic variant of the score
// test: the closed form erfc(√(x/2)) at df = 1, the regularized incomplete
// gamma function otherwise (series expansion for x < a+1, continued fraction
// beyond; cf. Numerical Recipes §6.2).

package stats

import (
	"fmt"
	"math"
)

// ChiSquaredSurvival returns P(X > x) for X ~ χ²_df. It is the asymptotic
// p-value of the score statistic U²/V with df = 1, where X is a squared
// standard normal and the tail is exactly erfc(√(x/2)).
func ChiSquaredSurvival(x float64, df int) float64 {
	if df <= 0 {
		panic(fmt.Sprintf("stats: chi-squared with df = %d", df))
	}
	if x <= 0 {
		return 1
	}
	if df == 1 {
		return math.Erfc(math.Sqrt(x / 2))
	}
	return regIncGammaQ(float64(df)/2, x/2)
}

// regIncGammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) for a > 0, x >= 0.
func regIncGammaQ(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		panic("stats: regIncGammaQ domain error")
	case x == 0:
		return 1
	case x < a+1:
		// Series converges fast here; Q = 1 - P.
		return 1 - regIncGammaPSeries(a, x)
	default:
		return regIncGammaQContinued(a, x)
	}
}

// regIncGammaPSeries evaluates P(a, x) by its power series.
func regIncGammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-15
	)
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// regIncGammaQContinued evaluates Q(a, x) by its continued fraction using
// modified Lentz's method.
func regIncGammaQContinued(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-15
		tiny    = 1e-300
	)
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
