package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

func TestNewSetStatistic(t *testing.T) {
	for _, name := range []string{"", "skat", "burden"} {
		if _, err := NewSetStatistic(name); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	if _, err := NewSetStatistic("acat"); err == nil {
		t.Error("unknown statistic accepted")
	}
	st, _ := NewSetStatistic("")
	if st.Name() != "skat" {
		t.Errorf("default statistic %q, want skat", st.Name())
	}
}

func TestSKATStatisticMatchesSKAT(t *testing.T) {
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
		set := data.SNPSet{SNPs: snps}
		got := Combine(SKATStatistic{}, set, weights, scores)
		want := SKAT(set, weights, scores)
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBurdenHandComputed(t *testing.T) {
	set := data.SNPSet{SNPs: []int{0, 2}}
	weights := data.Weights{2, 99, 0.5}
	scores := []float64{3, 99, -4}
	// (2·3 + 0.5·(−4))² = 4² = 16.
	if got := Combine(BurdenStatistic{}, set, weights, scores); math.Abs(got-16) > 1e-12 {
		t.Fatalf("burden = %v, want 16", got)
	}
}

func TestBurdenCancellation(t *testing.T) {
	// The defining contrast with SKAT: opposite-direction scores cancel in
	// the burden statistic but add in SKAT.
	set := data.SNPSet{SNPs: []int{0, 1}}
	weights := data.Weights{1, 1}
	scores := []float64{5, -5}
	if got := Combine(BurdenStatistic{}, set, weights, scores); got != 0 {
		t.Fatalf("burden with cancelling scores = %v, want 0", got)
	}
	if got := Combine(SKATStatistic{}, set, weights, scores); got != 50 {
		t.Fatalf("SKAT with cancelling scores = %v, want 50", got)
	}
}

func TestBurdenNonNegative(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(20) + 1
		weights := make(data.Weights, n)
		scores := make([]float64, n)
		snps := make([]int, n)
		for j := 0; j < n; j++ {
			weights[j] = rr.Float64()
			scores[j] = rr.Normal() * 10
			snps[j] = j
		}
		return Combine(BurdenStatistic{}, data.SNPSet{SNPs: snps}, weights, scores) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineAllLengths(t *testing.T) {
	sets := data.SNPSets{{SNPs: []int{0}}, {SNPs: []int{1}}}
	out := CombineAll(BurdenStatistic{}, sets, data.Weights{1, 2}, []float64{3, 4})
	if len(out) != 2 || out[0] != 9 || out[1] != 64 {
		t.Fatalf("CombineAll = %v", out)
	}
}

func TestBetaMAFWeights(t *testing.T) {
	m := data.NewGenotypeMatrix(3, 4)
	copy(m.Rows[0], []data.Genotype{0, 0, 0, 1}) // MAF 1/8: rare
	copy(m.Rows[1], []data.Genotype{1, 1, 1, 1}) // MAF 1/2: common
	copy(m.Rows[2], []data.Genotype{0, 0, 0, 0}) // monomorphic
	w, err := BetaMAFWeights(m, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if w[2] != 0 {
		t.Fatalf("monomorphic SNP weight %v, want 0", w[2])
	}
	if w[0] <= w[1] {
		t.Fatalf("rare SNP weight %v not above common SNP weight %v", w[0], w[1])
	}
	// Beta(x; 1, 25) = 25·(1−x)²⁴.
	want0 := 25 * math.Pow(1-0.125, 24)
	if math.Abs(w[0]-want0) > 1e-9 {
		t.Fatalf("w[0] = %v, want %v", w[0], want0)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("Beta weights invalid: %v", err)
	}
}

func TestBetaMAFWeightsFoldsMajorAllele(t *testing.T) {
	// A "MAF" above 0.5 must be folded to the minor allele.
	m := data.NewGenotypeMatrix(2, 4)
	copy(m.Rows[0], []data.Genotype{2, 2, 2, 1}) // allele freq 7/8 → minor 1/8
	copy(m.Rows[1], []data.Genotype{0, 0, 0, 1}) // minor 1/8
	w, err := BetaMAFWeights(m, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-w[1]) > 1e-9 {
		t.Fatalf("folded weights differ: %v vs %v", w[0], w[1])
	}
}

// TestBetaMAFWeightsRejectsBadParams: a shape that is not positive and
// finite is refused naming the parameter — an infinite or NaN one used to come
// back as NaN weights.
func TestBetaMAFWeightsRejectsBadParams(t *testing.T) {
	m := data.NewGenotypeMatrix(1, 2)
	copy(m.Rows[0], []data.Genotype{0, 1})
	for _, tc := range []struct {
		a, b float64
		want string
	}{
		{0, 25, "parameter a"},
		{math.Inf(1), 25, "parameter a"},
		{math.NaN(), 25, "parameter a"},
		{1, -1, "parameter b"},
		{1, math.Inf(1), "parameter b"},
		{1, math.NaN(), "parameter b"},
	} {
		if _, err := BetaMAFWeights(m, tc.a, tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("BetaMAFWeights(%g, %g): error %v, want one naming %s", tc.a, tc.b, err, tc.want)
		}
	}
}

func TestBetaUniformIsFlat(t *testing.T) {
	// Beta(1,1) is the uniform density: every polymorphic SNP gets weight 1.
	r := rng.New(3)
	m := data.NewGenotypeMatrix(5, 50)
	for j := 0; j < 5; j++ {
		for i := 0; i < 50; i++ {
			m.Rows[j][i] = data.Genotype(r.Binomial(2, 0.3))
		}
	}
	w, err := BetaMAFWeights(m, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range w {
		if v != 0 && math.Abs(v-1) > 1e-9 {
			t.Fatalf("Beta(1,1) weight[%d] = %v, want 1", j, v)
		}
	}
}

// TestAddPerSNPMatchesPerSNPBitwise pins the one-call fold to the per-score
// term it replaces, acc[c] + PerSNP(weight, scores[c]), bit for bit for SKAT
// and burden: over ±0, subnormals, ±Inf, products that overflow or underflow,
// and random normals, where a product fused into its add would round once
// instead of twice.
func TestAddPerSNPMatchesPerSNPBitwise(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
		1e-160, -1e-160, 1e160, -1e160, 1e308, math.Inf(1), math.Inf(-1), 0.1, 1.0 / 3, -2.5}
	for r := rng.New(5); len(values) < 40; {
		values = append(values, r.Normal())
	}
	for _, st := range []SetStatistic{SKATStatistic{}, BurdenStatistic{}} {
		acc := make([]float64, len(values))
		for _, weight := range values {
			for _, start := range values {
				for c := range acc {
					acc[c] = start
				}
				st.AddPerSNP(acc, weight, values)
				for c, score := range values {
					if want := start + st.PerSNP(weight, score); math.Float64bits(acc[c]) != math.Float64bits(want) {
						t.Fatalf("%s: %v + term(%v, %v): AddPerSNP %v, PerSNP %v", st.Name(), start, weight, score, acc[c], want)
					}
				}
			}
		}
	}
}
