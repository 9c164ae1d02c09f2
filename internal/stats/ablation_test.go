// Ablation micro-benchmarks for the Cox score design choices called out in
// DESIGN.md §10 and tabulated in EXPERIMENTS.md:
//
//	go test ./internal/stats -run '^$' -bench=Ablation -benchmem -benchtime=1x
//
// make bench runs them beside the repository root's engine ablations.

package stats

import (
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
)

// ablationPhenoGeno draws a survival phenotype and one SNP for ablations.
func ablationPhenoGeno(n int) (*data.Phenotype, []data.Genotype) {
	r := rng.New(9)
	ph := data.NewPhenotype(n)
	g := make([]data.Genotype, n)
	for i := 0; i < n; i++ {
		ph.Y[i] = r.Exponential(1.0 / 12)
		if r.Bernoulli(0.85) {
			ph.Event[i] = 1
		}
		g[i] = data.Genotype(r.Binomial(2, 0.3))
	}
	return ph, g
}

// BenchmarkAblationCoxSuffixSum measures the O(n log n + n)-per-SNP Cox
// score used in production.
func BenchmarkAblationCoxSuffixSum(b *testing.B) {
	ph, g := ablationPhenoGeno(1000)
	cox, err := newCox(ph, nil)
	if err != nil {
		b.Fatal(err)
	}
	u := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cox.Contributions(g, u)
	}
}

// BenchmarkAblationCoxNaive measures the literal O(n²) formula the fast path
// replaces.
func BenchmarkAblationCoxNaive(b *testing.B) {
	ph, g := ablationPhenoGeno(1000)
	u := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveCoxContributions(ph, g, u)
	}
}

// BenchmarkAblationScoreTest measures the per-SNP cost of the efficient
// score statistic (no optimisation, the paper's argument).
func BenchmarkAblationScoreTest(b *testing.B) {
	ph, g := ablationPhenoGeno(1000)
	cox, err := newCox(ph, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Score(cox, g)
		_ = cox.Variance(g)
	}
}

// BenchmarkAblationWaldNewton measures the per-SNP cost of the Wald/LRT
// alternative: Newton-Raphson on the Cox partial likelihood.
func BenchmarkAblationWaldNewton(b *testing.B) {
	ph, g := ablationPhenoGeno(1000)
	cox, err := newCox(ph, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cox.FitCox(g, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
