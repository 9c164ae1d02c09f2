package stats

import (
	"math"
	"testing"
	"testing/quick"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

func TestSKATHandComputed(t *testing.T) {
	set := data.SNPSet{Name: "g", SNPs: []int{0, 2}}
	weights := data.Weights{2, 1, 0.5}
	scores := []float64{3, 100, -4}
	// S = 2²·3² + 0.5²·(−4)² = 36 + 4 = 40.
	if got := SKAT(set, weights, scores); math.Abs(got-40) > 1e-12 {
		t.Fatalf("SKAT = %v, want 40", got)
	}
}

func TestSKATNonNegative(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(20) + 1
		weights := make(data.Weights, n)
		scores := make([]float64, n)
		snps := make([]int, n)
		for j := 0; j < n; j++ {
			weights[j] = rr.Float64() * 3
			scores[j] = rr.Normal() * 10
			snps[j] = j
		}
		return SKAT(data.SNPSet{SNPs: snps}, weights, scores) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSKATScaleQuadraticInWeights(t *testing.T) {
	set := data.SNPSet{SNPs: []int{0, 1}}
	scores := []float64{2, -3}
	base := SKAT(set, data.Weights{1, 1}, scores)
	doubled := SKAT(set, data.Weights{2, 2}, scores)
	if math.Abs(doubled-4*base) > 1e-12 {
		t.Fatalf("doubling weights scaled SKAT by %v, want 4", doubled/base)
	}
}

func TestCounterTally(t *testing.T) {
	c := NewCounter([]float64{10, 5})
	c.Add([]float64{11, 4}) // set 0 exceeds
	c.Add([]float64{10, 5}) // ties count as exceedance (>=)
	c.Add([]float64{9, 6})  // set 1 exceeds
	if c.Replicates() != 3 {
		t.Fatalf("replicates = %d", c.Replicates())
	}
	e := c.Exceedances()
	if e[0] != 2 || e[1] != 2 {
		t.Fatalf("exceedances = %v, want [2 2]", e)
	}
	p := c.PValues()
	if math.Abs(p[0]-3.0/4) > 1e-12 {
		t.Fatalf("p[0] = %v, want 0.75", p[0])
	}
}

func TestCounterPanics(t *testing.T) {
	c := NewCounter([]float64{1})
	assertPanics(t, "short replicate", func() { c.Add([]float64{1, 2}) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// SKAT computes the Sequence Kernel Association Test statistic of one SNP-set
// (Wu et al. 2011) straight from the paper's formula — the oracle the
// production SetStatistic's Combine is tested against:
//
//	S_k = Σ_{j∈I_k} ω_j² U_j²
//
// scores[j] must hold the marginal score U_j for every SNP j the set
// references; weights[j] is ω_j.
func SKAT(set data.SNPSet, weights data.Weights, scores []float64) float64 {
	s := 0.0
	for _, j := range set.SNPs {
		w := weights[j]
		u := scores[j]
		s += w * w * u * u
	}
	return s
}
