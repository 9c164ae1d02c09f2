package rdd_test

import (
	"runtime"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
)

// TestLongLivedContextStaysFlat is the job server's life in miniature: one
// Context, one Warm()ed analysis, then replicate after replicate, each its
// own job with its own shuffle. At every checkpoint the shuffles of finished
// jobs must be cleaned — at most one job's map outputs retained — and over
// the run the live heap may grow by the job history's entry and little
// else: at most 1 kB per job. Without the cleaner every replicate's map
// outputs stay, some 15 kB a job.
func TestLongLivedContextStaysFlat(t *testing.T) {
	const (
		warmup      = 100
		checkpoints = 3
		perCheck    = 1000
		maxPerJob   = 1024 // bytes of live heap per job
	)
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 4 << 10, // a dozen partitions: a dozen map outputs a job
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.Generate(gen.Config{Patients: 60, SNPs: 400, SNPSets: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "soak")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(ctx, paths, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	ds = nil

	next := uint64(1)
	replicate := func(n int) {
		for range n {
			if _, err := a.Replicate(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	replicate(1)
	oneJob := rdd.RetainedMapOutputs(ctx)
	if oneJob == 0 {
		t.Fatal("a replicate retained no map outputs: the soak measures nothing")
	}
	// settle waits for the finished jobs' shuffles to be cleaned and returns
	// the live heap after a full collection.
	settle := func() int64 {
		rdd.AwaitCleanups(t, "finished replicates' shuffles", func() bool {
			return rdd.RetainedMapOutputs(ctx) <= oneJob
		})
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	replicate(warmup)
	base, jobs0 := settle(), ctx.JobCount()
	for c := 1; c <= checkpoints; c++ {
		replicate(perCheck)
		heap, jobs := settle(), ctx.JobCount()-jobs0
		perJob := float64(heap-base) / float64(jobs)
		t.Logf("checkpoint %d: %d jobs, live heap %+.1f kB, %.0f B/job", c, jobs, float64(heap-base)/1e3, perJob)
		if c == checkpoints && perJob > maxPerJob {
			t.Fatalf("live heap grew %.0f B per job over %d jobs, ceiling %d", perJob, jobs, maxPerJob)
		}
	}
	runtime.KeepAlive(a)
}
