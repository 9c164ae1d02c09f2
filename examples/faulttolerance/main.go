// Fault tolerance: the paper's second selling point for Spark ("this
// computational approach also harnesses the fault-tolerant features of
// Spark"). RDD lineage means failures cost time, never correctness: lost
// cached partitions recompute from the genotype file, lost shuffle outputs
// trigger a map-stage resubmission, and crashed task attempts are retried —
// all without changing a single number of the inference.
//
// The example runs the same Monte Carlo analysis three times on identical
// data:
//
//  1. undisturbed — the baseline;
//
//  2. under chaos — a whole machine is killed mid-analysis (taking its
//     executors, cached blocks, shuffle outputs, and HDFS replicas with it)
//     while every task attempt has a 2% chance of crashing and every shuffle
//     read a 2% chance of losing a map output;
//
//  3. the same chaos again — byte-identical recovery, because every injected
//     fault is a pure function of the configuration seed.
//
// Run it with:
//
//	go run ./examples/faulttolerance
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

const iterations = 150

// chaos is the fault profile of the disturbed runs: scheduled loss of node 0
// early in the analysis, plus background task crashes and fetch failures.
var chaos = rdd.FaultProfile{
	TaskCrashProb:    0.02,
	FetchFailureProb: 0.02,
	NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 40}},
}

func main() {
	ds, err := gen.Generate(gen.Config{Patients: 400, SNPs: 6000, SNPSets: 40}, 31)
	if err != nil {
		log.Fatal(err)
	}

	baseline := run(ds, rdd.FaultProfile{})

	// The disturbed run narrates its own recovery through the engine's
	// console progress listener (RecoveryOnly: routine job/stage progress is
	// suppressed, only failures, retries, resubmissions, exclusions, and the
	// node loss print) — the bus does the reporting, not hand-rolled hooks.
	fmt.Println("live recovery feed of the disturbed run:")
	disturbed := run(ds, chaos, &rdd.ConsoleProgressListener{W: os.Stdout, RecoveryOnly: true})
	fmt.Println()

	replay := run(ds, chaos)

	fmt.Printf("fault tolerance: %d Monte Carlo iterations on identical data\n\n", iterations)
	fmt.Printf("%-34s %14s %12s\n", "scenario", "sim-time (s)", "results")
	fmt.Printf("%-34s %14.1f %12s\n", "no failures", baseline.simTime, "baseline")
	fmt.Printf("%-34s %14.1f %12s\n", "node killed + 2%/2% chaos", disturbed.simTime, compare(baseline.res, disturbed.res))
	fmt.Printf("%-34s %14.1f %12s\n", "same chaos, fresh cluster", replay.simTime, compare(baseline.res, replay.res))
	fmt.Println()

	fmt.Printf("cached bytes before node loss: %d, after: %d (lost blocks recompute on demand)\n",
		disturbed.cachedBefore, disturbed.cachedAfter)
	fmt.Printf("recovery work under chaos: %d task retries, %d stage re-attempts, %d recomputed map partitions\n",
		disturbed.stats.TaskRetries, disturbed.stats.StageAttempts, disturbed.stats.RecomputedPartitions)
	fmt.Printf("recovery share of runtime: %s (%.1f of %.1f sim-s)\n",
		metrics.FormatPercent(disturbed.stats.Overhead()), disturbed.stats.RecoverySeconds, disturbed.simTime)
	fmt.Println()

	if disturbed.fingerprint == replay.fingerprint {
		fmt.Println("replaying the chaos run reproduced the full event log byte for byte,")
		fmt.Println("timestamps included: every injected fault, and every simulated second,")
		fmt.Println("is a pure function of the configuration.")
	} else {
		fmt.Println("WARNING: chaos replay diverged — fault injection is not deterministic")
	}
	fmt.Println()
	fmt.Println("exceedance counts are identical across all three runs: lineage")
	fmt.Println("recomputation and stage resubmission rebuild lost state deterministically.")
}

// outcome is one full analysis run with its recovery accounting. The
// fingerprint is the run's entire event log as written — a much stronger
// determinism witness than the per-job metrics alone, since it pins every
// task attempt, fault, and recovery action, and when each happened.
type outcome struct {
	res          *core.Result
	simTime      float64
	stats        rdd.RecoveryStats
	fingerprint  string
	cachedBefore int64
	cachedAfter  int64
}

func run(ds *data.Dataset, faults rdd.FaultProfile, extra ...rdd.Listener) outcome {
	var logBuf bytes.Buffer
	elw := rdd.NewEventLogWriter(&logBuf)
	ctx, err := rdd.New(rdd.Config{
		Cluster:   cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:      4,
		Faults:    faults,
		Listeners: append([]rdd.Listener{elw}, extra...),
	})
	if err != nil {
		log.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "ft")
	if err != nil {
		log.Fatal(err)
	}
	a, err := core.NewAnalysis(ctx, paths, core.Options{Family: "cox", Seed: 17})
	if err != nil {
		log.Fatal(err)
	}

	// Materialise and cache the packed genotype blocks before the chaos
	// starts, so the scheduled node loss destroys real cached state, real
	// shuffle outputs, and real HDFS replicas mid-analysis.
	if err := a.Warm(); err != nil {
		log.Fatal(err)
	}
	o := outcome{cachedBefore: ctx.CachedBytes()}

	o.res, err = a.MonteCarlo(iterations)
	if err != nil {
		log.Fatal(err)
	}
	o.simTime = ctx.VirtualTime()
	o.cachedAfter = ctx.CachedBytes()
	o.stats = rdd.SummarizeRecovery(ctx.Jobs())
	if err := elw.Close(); err != nil {
		log.Fatal(err)
	}
	o.fingerprint = logBuf.String()
	return o
}

func compare(a, b *core.Result) string {
	for k := range a.Exceed {
		if a.Exceed[k] != b.Exceed[k] {
			return "DIVERGED"
		}
	}
	return "identical"
}
