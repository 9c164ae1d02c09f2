package core

import (
	"fmt"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
)

// TestCappedChaosRunSpillsAndMatchesUncapped squeezes the sort-based shuffle
// below its working set and asks for the same inference. The shape is the
// paper's Experiment A at 1/100 scale — 1 000 patients × 1 000 SNPs × 10 sets
// on 6 nodes of two 4-core executors, block size and scheduling overheads
// divided by 100, 1 024 Monte Carlo iterations (16 batched jobs). The working
// set is measured, not guessed: an uncapped run reports the largest shuffle
// buffer any one task held resident, and each executor's unified pool is then
// capped at half of it, so a shuffle that had to keep its buffers resident
// could not run at all. Under crashes, fetch failures and a node loss the
// capped run must complete, must spill, must give the uncapped run's result
// bit for bit, and two replays must give the same job fingerprints, spill
// accounting included.
//
// The capped runs pin Workers: 1. Concurrent tasks share one capped pool, so
// which grant is denied — and with it where a buffer spills — depends on how
// they interleave unless host-side execution is serialised.
func TestCappedChaosRunSpillsAndMatchesUncapped(t *testing.T) {
	const scale, snps, patients = 100, 100000 / 100, 1000
	// benchtab's dataset for this shape at its default seed 1.
	ds := testDataset(t, patients, snps, 1000/scale, 1^snps<<20^patients)
	run := func(memGiB float64, faults rdd.FaultProfile, workers int) (*Result, []rdd.JobMetrics, int64) {
		t.Helper()
		var bufferPeak int64
		probe := rdd.ListenerFunc(func(ev rdd.Event) {
			if e, ok := ev.(*rdd.TaskEnd); ok && e.Metrics.ShuffleBufferBytes > bufferPeak {
				bufferPeak = e.Metrics.ShuffleBufferBytes
			}
		})
		ctx, err := rdd.New(rdd.Config{
			Cluster: cluster.Config{
				Nodes:             6,
				Spec:              cluster.M3TwoXLarge,
				ExecutorsPerNode:  2,
				CoresPerExecutor:  4,
				MemPerExecutorGiB: memGiB,
			},
			DFSBlockSize:     (128 << 20) / scale,
			SchedOverheadSec: 0.004 / scale,
			StageOverheadSec: 0.05 / scale,
			Seed:             1,
			Faults:           faults,
			Workers:          workers,
			Listeners:        []rdd.Listener{probe},
		})
		if err != nil {
			t.Fatal(err)
		}
		a := stagedAnalysis(t, ctx, ds, Options{Seed: 1})
		res, err := a.MonteCarlo(16 * mcBatch)
		if err != nil {
			t.Fatalf("Monte Carlo under a %.3g GiB pool: %v", memGiB, err)
		}
		return res, ctx.Jobs(), bufferPeak
	}
	fingerprint := func(jobs []rdd.JobMetrics) string {
		var fp strings.Builder
		for _, m := range jobs {
			fmt.Fprintf(&fp, "%+v\n", m)
		}
		return fp.String()
	}

	uncapped, _, workingSet := run(10.0/scale, rdd.FaultProfile{}, 0)
	if workingSet <= 0 {
		t.Fatal("the uncapped run held no shuffle buffer: the working set is unmeasurable")
	}
	capGiB := float64(workingSet/2) / (1 << 30)
	chaos := rdd.FaultProfile{
		TaskCrashProb:    0.02,
		FetchFailureProb: 0.02,
		NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 20}},
	}
	first, firstJobs, _ := run(capGiB, chaos, 1)
	var spills int
	var spilled int64
	for _, m := range firstJobs {
		spills += m.SpillCount
		spilled += m.SpilledBytes
	}
	if spills == 0 || spilled == 0 {
		t.Fatalf("a pool of %d B (half the %d B working set) did not spill: %d runs, %d B",
			workingSet/2, workingSet, spills, spilled)
	}
	assertBitwiseResult(t, first, uncapped)
	replay, replayJobs, _ := run(capGiB, chaos, 1)
	assertBitwiseResult(t, replay, uncapped)
	if a, b := fingerprint(firstJobs), fingerprint(replayJobs); a != b {
		t.Fatalf("two capped replays diverged:\n%s", replaytest.FirstDiff(a, b))
	}
}
