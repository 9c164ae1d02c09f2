package core

import (
	"strings"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
)

// permIters keeps the chaos matrix (15 runs of 1 + permIters full scans) short
// while still spreading injected faults over several replicate jobs.
const permIters = 5

func permutationRun(t *testing.T, ds *data.Dataset, faults rdd.FaultProfile, workers int) (*Result, replaytest.Observation) {
	t.Helper()
	return resampleRun(t, ds, faults, workers, func(a *Analysis) (*Result, error) { return a.Permutation(permIters) })
}

// TestPermutationMatchesReferenceUnderChaos pins Algorithm 2 off packed rows
// to the engine-free reference, which sums per-patient contributions: within
// 1e-9 with equal exceedance counters, clean and under the chaos profile;
// recovery must not move a bit off the fault-free run, and a seeded chaos
// replay must reproduce report, job fingerprint and event log byte
// for byte across the Workers ∈ {1, 2, 8} × 5 matrix.
func TestPermutationMatchesReferenceUnderChaos(t *testing.T) {
	ds := testDataset(t, 61, 200, 9, 7) // seven genotype partitions, as in the Monte Carlo chaos pin
	want, err := ReferencePermutation(ds, Options{Seed: 7}, permIters)
	if err != nil {
		t.Fatal(err)
	}
	var chaos *Result
	obs := replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		res, obs := permutationRun(t, ds, chaosProfile, workers)
		chaos = res
		return obs
	})
	assertMatchesReference(t, chaos, want)

	clean, obsClean := permutationRun(t, ds, rdd.FaultProfile{}, 0)
	assertMatchesReference(t, clean, want)
	assertBitwiseResult(t, chaos, clean)
	for _, want := range []string{`"type":"FetchFailure"`, `"type":"StageResubmitted"`, `"type":"NodeLost"`, "injected task crash"} {
		if !strings.Contains(obs.Log, want) || strings.Contains(obsClean.Log, want) {
			t.Errorf("%s: want it in the chaos log and not in the clean one; the pin is vacuous for it", want)
		}
	}
}

// TestPermutationReplicatesShareTheObservedKernel is the same-path pin: the ≥
// tally compares each replicate with the observed statistics, so the two must
// come from one kernel. A replicate under the identity permutation is the
// observed pass again and must reproduce it bit for bit, as must Observed() —
// also on a Warm()ed analysis, whose passes read the cached blocks.
func TestPermutationReplicatesShareTheObservedKernel(t *testing.T) {
	ds := testDataset(t, 61, 200, 9, 7)
	identity := make([]int, ds.Phenotype.Patients())
	for i := range identity {
		identity[i] = i
	}
	for _, family := range []string{"cox", "gaussian"} {
		for _, warm := range []bool{false, true} {
			a := stagedAnalysis(t, testContext(t, 3), ds, Options{Seed: 7, Family: family})
			if warm {
				if err := a.Warm(); err != nil {
					t.Fatal(err)
				}
			}
			res, err := a.Permutation(0)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.permuted(identity)
			if err != nil {
				t.Fatal(err)
			}
			observed, err := a.Observed()
			if err != nil {
				t.Fatal(err)
			}
			for k := range rep {
				if rep[k] != res.Observed[k] || observed[k] != res.Observed[k] {
					t.Fatalf("%s (warm: %v) set %d: identity replicate %v, Observed() %v, Permutation's observed %v",
						family, warm, k, rep[k], observed[k], res.Observed[k])
				}
			}
		}
	}
}

// TestPermutationDataflowShape pins Algorithm 2's dataflow as counters:
// Permutation(B) is 1 + B jobs of two stages — the fold over the packed
// genotype lineage and the reduce, no contribution stage and so no U — each
// scanning the genotype text exactly once; after Warm() the text is read once
// for good and every pass reads the cached packed blocks.
func TestPermutationDataflowShape(t *testing.T) {
	const iters = 3
	ds := testDataset(t, 61, 200, 9, 21)
	var stages []string
	ctx := testContext(t, 3)
	ctx.AddListener(rdd.ListenerFunc(func(ev rdd.Event) {
		if e, ok := ev.(*rdd.StageSubmitted); ok {
			stages = append(stages, e.RDD)
		}
	}))
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 7})
	text, err := ctx.FS().ReadAll(a.genoPath)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	parts := blocks.Partitions()
	if parts < 2 {
		t.Fatalf("%d genotype partitions: the fixture does not spread the scan over tasks", parts)
	}

	if _, err := a.Permutation(iters); err != nil {
		t.Fatal(err)
	}
	jobs := ctx.Jobs()
	if len(jobs) != 1+iters {
		t.Fatalf("Permutation(%d) ran %d jobs, want %d", iters, len(jobs), 1+iters)
	}
	for i, m := range jobs {
		if m.Stages != 2 || m.Tasks != 2*parts {
			t.Errorf("job %d: %d stages, %d tasks, want 2 and %d", i, m.Stages, m.Tasks, 2*parts)
		}
		if m.DFSBytes != int64(len(text)) || m.CacheReadBytes != 0 {
			t.Errorf("job %d read %d DFS bytes and %d cached bytes, want the %d-byte genotype text once and no cache", i, m.DFSBytes, m.CacheReadBytes, len(text))
		}
	}
	if len(stages) != 2*(1+iters) {
		t.Fatalf("%d stages submitted, want %d", len(stages), 2*(1+iters))
	}
	for i, name := range stages {
		want := []string{"fold:setSums(flatMap:parsePackGenotypes(textFile(", "reduceByKey(fold:setSums(flatMap:parsePackGenotypes("}[i%2]
		if !strings.HasPrefix(name, want) {
			t.Errorf("stage %d is %q, want a %s…) stage straight over the packed genotype lineage", i, name, want)
		}
	}

	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	cached := ctx.CachedBytes()
	warmJob := ctx.Jobs()[1+iters]
	if warmJob.DFSBytes != int64(len(text)) {
		t.Fatalf("Warm read %d DFS bytes, want the text once = %d", warmJob.DFSBytes, len(text))
	}
	if _, err := a.Permutation(iters); err != nil {
		t.Fatal(err)
	}
	for i, m := range ctx.Jobs()[2+iters:] {
		if m.DFSBytes != 0 || m.CacheReadBytes != cached {
			t.Errorf("warm job %d read %d DFS bytes and %d cached bytes, want 0 and the packed matrix once = %d", i, m.DFSBytes, m.CacheReadBytes, cached)
		}
	}
	if n := len(ctx.Jobs()); n != 2*(1+iters)+1 {
		t.Fatalf("%d jobs in all, want %d", n, 2*(1+iters)+1)
	}
}
