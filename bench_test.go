// The benchmark suite. One Benchmark per paper artifact (Tables I-VIII,
// Figures 2-7) regenerates that artifact through the experiment harness and
// reports the key simulated runtimes as benchmark metrics, plus ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// Paper-axis experiments are heavy; run them one iteration at a time:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Environment knobs:
//
//	SPARKSCORE_BENCH_SCALE      divisor of the paper's input sizes (default 1000)
//	SPARKSCORE_BENCH_MAX_ITERS  cap on resampling iterations (default 1000)
//
// Set SPARKSCORE_BENCH_SCALE=1 to run the paper's exact sizes (cluster-scale
// inputs; expect hours). cmd/benchtab renders the same experiments as full
// tables.
package sparkscore

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/harness"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func benchHarness() *harness.Harness {
	return &harness.Harness{
		Scale:         envInt("SPARKSCORE_BENCH_SCALE", 1000),
		Reps:          1,
		MaxIterations: envInt("SPARKSCORE_BENCH_MAX_ITERS", 1000),
		Seed:          1,
	}
}

// runArtifact regenerates one paper artifact per benchmark iteration and
// logs the rendered tables under -v.
func runArtifact(b *testing.B, id string) {
	e, ok := harness.Resolve(id)
	if !ok {
		b.Fatalf("unknown artifact %s", id)
	}
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(h, &buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("artifact %s (scale 1/%d):\n%s", id, h.Scale, buf.String())
		}
	}
}

// One benchmark per table and figure.

func BenchmarkTab1_ClusterProfile(b *testing.B)    { runArtifact(b, "tab1") }
func BenchmarkFig2_Scalability(b *testing.B)       { runArtifact(b, "fig2") }
func BenchmarkTab3_RuntimeStability(b *testing.B)  { runArtifact(b, "tab3") }
func BenchmarkFig3_Sensitivity(b *testing.B)       { runArtifact(b, "fig3") }
func BenchmarkFig4_Caching10K(b *testing.B)        { runArtifact(b, "fig4") }
func BenchmarkTab5_CacheStability(b *testing.B)    { runArtifact(b, "tab5") }
func BenchmarkFig5_Caching1M(b *testing.B)         { runArtifact(b, "fig5") }
func BenchmarkFig6_StrongScaling(b *testing.B)     { runArtifact(b, "fig6") }
func BenchmarkTab6_StrongScalingIn(b *testing.B)   { runArtifact(b, "tab6") }
func BenchmarkFig7_Containers(b *testing.B)        { runArtifact(b, "fig7") }
func BenchmarkTab8_ContainerLayouts(b *testing.B)  { runArtifact(b, "tab8") }
func BenchmarkTab2_ExperimentAInputs(b *testing.B) { runArtifact(b, "tab2") }
func BenchmarkTab4_ExperimentBInputs(b *testing.B) { runArtifact(b, "tab4") }
func BenchmarkTab7_AutoTuningInputs(b *testing.B)  { runArtifact(b, "tab7") }

// Ablation benchmarks (see DESIGN.md §5).

// benchPhenoGeno draws a survival phenotype and one SNP for ablations.
func benchPhenoGeno(n int) (*data.Phenotype, []data.Genotype) {
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
	ph, g := benchPhenoGeno(1000)
	cox, err := stats.NewCox(ph)
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
	ph, g := benchPhenoGeno(1000)
	u := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.NaiveCoxContributions(ph, g, u)
	}
}

// BenchmarkAblationScoreTest measures the per-SNP cost of the efficient
// score statistic (no optimisation, the paper's argument).
func BenchmarkAblationScoreTest(b *testing.B) {
	ph, g := benchPhenoGeno(1000)
	cox, err := stats.NewCox(ph)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.Score(cox, g)
		_ = cox.Variance(g)
	}
}

// BenchmarkAblationWaldNewton measures the per-SNP cost of the Wald/LRT
// alternative: Newton-Raphson on the Cox partial likelihood.
func BenchmarkAblationWaldNewton(b *testing.B) {
	ph, g := benchPhenoGeno(1000)
	cox, err := stats.NewCox(ph)
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

// mcVirtualSeconds runs a small Monte Carlo analysis and returns simulated
// seconds; used by the cache and locality ablations.
func mcVirtualSeconds(b *testing.B, cache, locality bool) float64 {
	b.Helper()
	ctx, err := rdd.New(rdd.Config{
		Cluster:         cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:            5,
		DFSBlockSize:    1 << 20, // ~10 input blocks, so placement matters
		DisableLocality: !locality,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := gen.Generate(gen.Config{Patients: 500, SNPs: 10000, SNPSets: 100}, 7)
	if err != nil {
		b.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "ablation")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Seed: 3}
	if !cache {
		opts = opts.WithoutCache()
	}
	a, err := core.NewAnalysis(ctx, paths, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx.ResetClock()
	if _, err := a.MonteCarlo(10); err != nil {
		b.Fatal(err)
	}
	return ctx.VirtualTime()
}

// BenchmarkAblationCacheOn / Off quantify Experiment B's switch in isolation.
func BenchmarkAblationCacheOn(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = mcVirtualSeconds(b, true, true)
	}
	b.ReportMetric(sim, "sim-s")
}

func BenchmarkAblationCacheOff(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = mcVirtualSeconds(b, false, true)
	}
	b.ReportMetric(sim, "sim-s")
}

// BenchmarkAblationLocalityOn / Off quantify locality-aware task placement.
func BenchmarkAblationLocalityOn(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = mcVirtualSeconds(b, true, true)
	}
	b.ReportMetric(sim, "sim-s")
}

func BenchmarkAblationLocalityOff(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = mcVirtualSeconds(b, true, false)
	}
	b.ReportMetric(sim, "sim-s")
}

// BenchmarkEngineShuffle measures raw engine shuffle throughput
// (reduceByKey over 100k pairs), the substrate cost under every iteration.
func BenchmarkEngineShuffle(b *testing.B) {
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
		Seed:    5,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := make([]rdd.KV[int, float64], 100000)
	r := rng.New(1)
	for i := range in {
		in[i] = rdd.KV[int, float64]{K: r.Intn(1000), V: r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := rdd.ReduceByKey(rdd.Parallelize(ctx, in, 16), func(a, b float64) float64 { return a + b }, 16)
		if _, err := rdd.Collect(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorMillionGenotypes measures Section III generator
// throughput (genotypes per second).
func BenchmarkGeneratorMillionGenotypes(b *testing.B) {
	cfg := gen.Config{Patients: 1000, SNPs: 1000, SNPSets: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Patients*cfg.SNPs), "genotypes/op")
}

var sinkResult *core.Result

// BenchmarkReferenceMonteCarlo measures the sequential baseline the engine
// is compared against.
func BenchmarkReferenceMonteCarlo(b *testing.B) {
	ds, err := gen.Generate(gen.Config{Patients: 500, SNPs: 1000, SNPSets: 50}, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ReferenceMonteCarlo(ds, core.Options{Seed: 1}, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}

// TestBenchmarkRegistryMatchesPaperArtifacts pins the one-bench-per-artifact
// guarantee: every table and figure of the paper resolves to an experiment.
func TestBenchmarkRegistryMatchesPaperArtifacts(t *testing.T) {
	artifacts := []string{
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	}
	for _, id := range artifacts {
		if _, ok := harness.Resolve(id); !ok {
			t.Errorf("paper artifact %s has no experiment", id)
		}
	}
	// The paper's 7 artifacts plus the chaos (lineage recovery), combine
	// (map-side combine ablation), serving (FIFO vs FAIR job-server
	// latency), speculation (straggler mitigation), memory (sort-shuffle
	// spill-and-complete under a capped unified pool), adaptive (skew
	// splitting and partition coalescing), and eqtl (all-pairs broadcast
	// vs cartesian parity under chaos) experiments.
	if len(harness.Experiments()) != 14 {
		t.Errorf("%d canonical experiments, want 14", len(harness.Experiments()))
	}
	_ = fmt.Sprintf // keep fmt imported alongside future debug logging
}

// BenchmarkAblationFig6MemoryOnly / DiskSpill quantify the storage-level fix
// for the strong-scaling collapse: Figure 6's 6-node configuration with the
// paper's MEMORY_ONLY persistence versus MEMORY_AND_DISK.
func fig6SixNodes(b *testing.B, diskSpill bool) float64 {
	b.Helper()
	h := &harness.Harness{Scale: 1000, Reps: 1, Seed: 3}
	v, err := h.Measure(harness.Params{
		Patients: 1000, SNPs: 1000000, SNPSets: 100, Nodes: 6,
		ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 1,
		Method: "mc", Cache: true, DiskSpill: diskSpill, Iterations: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkAblationFig6MemoryOnly(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = fig6SixNodes(b, false)
	}
	b.ReportMetric(sim, "sim-s")
}

func BenchmarkAblationFig6DiskSpill(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = fig6SixNodes(b, true)
	}
	b.ReportMetric(sim, "sim-s")
}
