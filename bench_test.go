// Ablation micro-benchmarks for the engine design choices called out in
// DESIGN.md §10 and tabulated in EXPERIMENTS.md (the Cox score ablations live
// beside their oracles in internal/stats; make bench runs both):
//
//	go test -bench=Ablation -benchmem -benchtime=1x
//
// The paper's tables and figures are regenerated by cmd/benchtab; host
// performance of the flagship workloads is measured by bench/.
package sparkscore

import (
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/gen"
	"sparkscore/internal/harness"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

// mcVirtualSeconds runs a small Monte Carlo analysis and returns simulated
// seconds; used by the cache ablation.
func mcVirtualSeconds(b *testing.B, cache bool) float64 {
	b.Helper()
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:         5,
		DFSBlockSize: 1 << 20, // ~10 input blocks
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
	opts := core.Options{Seed: 3, NoCache: !cache}
	a, err := core.NewAnalysis(ctx, paths, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx.ResetClock()
	// Ten resampling jobs (64 replicates each): what the switch saves is one
	// genotype scan per job.
	if _, err := a.MonteCarlo(10 * 64); err != nil {
		b.Fatal(err)
	}
	return ctx.VirtualTime()
}

// BenchmarkAblationCacheOn / Off quantify Experiment B's switch in isolation.
func BenchmarkAblationCacheOn(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = mcVirtualSeconds(b, true)
	}
	b.ReportMetric(sim, "sim-s")
}

func BenchmarkAblationCacheOff(b *testing.B) {
	var sim float64
	for i := 0; i < b.N; i++ {
		sim = mcVirtualSeconds(b, false)
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

// BenchmarkAblationFig6MemoryOnly / DiskSpill quantify the storage-level fix
// for the strong-scaling collapse: Figure 6's 6-node configuration, its
// executors starved in proportion to the measured cached working set
// (harness.StarveCache), with the paper's MEMORY_ONLY persistence versus
// MEMORY_AND_DISK.
func fig6SixNodes(b *testing.B, diskSpill bool) float64 {
	b.Helper()
	h := &harness.Harness{Scale: 1000, Seed: 3}
	p, err := h.StarveCache(harness.Params{
		Patients: 1000, SNPs: 1000000, SNPSets: 100, Nodes: 6,
		ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 1,
		// Ten resampling jobs of 64 replicates: dropped partitions are
		// recomputed once per job.
		Method: "mc", Cache: true, DiskSpill: diskSpill, Iterations: 10 * 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	v, err := h.Measure(p)
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
