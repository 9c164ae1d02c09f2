// Asymptotic set p-values. The SKAT statistic S_k = Σ ω² U² is a quadratic
// form in the asymptotically normal score vector, so its null distribution is
// a weighted sum of chi-squares. Following the SKAT literature we approximate
// it by the moment-matching method of Liu, Tang & Zhang (2009): the first four
// cumulants of the quadratic form are computed exactly from the per-patient
// contributions, and the distribution is matched to a (possibly noncentral)
// scaled chi-square. The burden statistic (Σ ω U)² is the rank-one case — one
// vector, the weighted contributions summed — where the match is
// P(χ²₁ > S/c₁) to rounding.
//
// This is the "asymptotics, or large sample theory" route the paper
// contrasts with resampling — fast, but relying on the regularity conditions
// that resampling avoids. Only the null's moments are computed here: the
// observed statistic is the resampling path's.

package stats

import (
	"fmt"
	"math"
)

// SKATMoments holds the cumulants c_r = tr((WΣ)^r) of a set statistic's null
// quadratic form, computed from the Gram matrix of its weighted per-patient
// contribution vectors.
type SKATMoments struct {
	C1, C2, C3, C4 float64
}

// ComputeSKATMoments returns the exact first four cumulants of the null
// quadratic form whose kernel is the Gram matrix of the vectors v: for SKAT
// v[r] = ω_r · u_r, the set's r-th SNP's weighted contributions; for burden
// the single vector Σ_r ω_r · u_r. No vectors is the degenerate form, every
// cumulant zero; vectors of different lengths panic.
func ComputeSKATMoments(v [][]float64) SKATMoments {
	m := len(v)
	// Gram matrix G_rs = v_r · v_s; the quadratic form's kernel eigenvalues
	// are those of G, so c_k = tr(G^k).
	gram := newSquare(m)
	for r := 0; r < m; r++ {
		if len(v[r]) != len(v[0]) {
			panic(fmt.Sprintf("stats: contribution vector %d has %d patients, vector 0 has %d", r, len(v[r]), len(v[0])))
		}
		for s := 0; s <= r; s++ {
			dot := 0.0
			for i, x := range v[r] {
				dot += x * v[s][i]
			}
			gram[r][s] = dot
			gram[s][r] = dot
		}
	}
	var mo SKATMoments
	for r := 0; r < m; r++ {
		mo.C1 += gram[r][r]
	}
	g2 := matmul(gram, gram)
	for r := 0; r < m; r++ {
		mo.C2 += g2[r][r]
	}
	for r := 0; r < m; r++ {
		for s := 0; s < m; s++ {
			mo.C3 += g2[r][s] * gram[s][r]
			mo.C4 += g2[r][s] * g2[s][r]
		}
	}
	return mo
}

func matmul(a, b [][]float64) [][]float64 {
	m := len(a)
	out := newSquare(m)
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			row := b[k]
			for j := 0; j < m; j++ {
				out[i][j] += aik * row[j]
			}
		}
	}
	return out
}

// LiuPValue approximates P(S > observed) for a quadratic form with the given
// cumulants by the Liu–Tang–Zhang scaled (noncentral) chi-square match.
func LiuPValue(observed float64, mo SKATMoments) float64 {
	if mo.C2 <= 0 {
		// Degenerate form (all weighted scores are identically zero).
		if observed > 0 {
			return 0
		}
		return 1
	}
	muQ := mo.C1
	sigmaQ := math.Sqrt(2 * mo.C2)
	s1 := mo.C3 / math.Pow(mo.C2, 1.5)
	s2 := mo.C4 / (mo.C2 * mo.C2)

	var l, d, a float64
	if s1*s1 > s2 {
		a = 1 / (s1 - math.Sqrt(s1*s1-s2))
		d = s1*a*a*a - a*a
		l = a*a - 2*d
	} else {
		l = 1 / s2
		a = math.Sqrt(l)
		d = 0
	}
	muX := l + d
	sigmaX := math.Sqrt2 * a
	x := (observed-muQ)/sigmaQ*sigmaX + muX
	return noncentralChiSquaredSurvival(x, l, d)
}

// noncentralChiSquaredSurvival returns P(X > x) for X ~ χ²_df(ncp) with
// possibly fractional df, via the Poisson mixture of central chi-squares.
func noncentralChiSquaredSurvival(x, df, ncp float64) float64 {
	if x <= 0 {
		return 1
	}
	if df <= 0 {
		df = 1e-8
	}
	if ncp <= 0 {
		return regIncGammaQ(df/2, x/2)
	}
	// P(X > x) = Σ_k Pois(k; ncp/2) · P(χ²_{df+2k} > x). The Poisson weights
	// concentrate near ncp/2; sum until the remaining mass is negligible.
	const eps = 1e-12
	lambda := ncp / 2
	logW := -lambda // log weight of k = 0
	total := 0.0
	mass := 0.0
	for k := 0; k < 10000; k++ {
		w := math.Exp(logW)
		total += w * regIncGammaQ((df+2*float64(k))/2, x/2)
		mass += w
		if 1-mass < eps && k > int(lambda) {
			break
		}
		logW += math.Log(lambda) - math.Log(float64(k+1))
	}
	if total > 1 {
		total = 1
	}
	return total
}
