package core

import (
	"bytes"
	"math"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/stats"
)

// chaosProfile crashes tasks, fails shuffle fetches, and loses a node
// mid-run.
var chaosProfile = rdd.FaultProfile{
	TaskCrashProb:    0.25,
	FetchFailureProb: 0.15,
	NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 8}},
}

// monteCarloRun executes one Monte Carlo analysis under the fault profile and
// returns the result plus the run's stripped event-log fingerprint.
func monteCarloRun(t *testing.T, ds *data.Dataset, faults rdd.FaultProfile, iters int) (*Result, string) {
	t.Helper()
	var logBuf bytes.Buffer
	elw := rdd.NewEventLogWriter(&logBuf)
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 4 << 10,
		Seed:         11,
		Faults:       faults,
		Listeners:    []rdd.Listener{elw},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 7})
	res, err := a.MonteCarlo(iters)
	if err != nil {
		t.Fatal(err)
	}
	if err := elw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := rdd.ReadEventLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fp bytes.Buffer
	for _, ev := range events {
		line, err := rdd.MarshalEvent(rdd.StripMeasuredTime(ev))
		if err != nil {
			t.Fatal(err)
		}
		fp.Write(line)
		fp.WriteByte('\n')
	}
	return res, fp.String()
}

// assertBitwiseResult compares two resampling results for exact (bitwise)
// float equality — a rerun must not perturb a single ULP.
func assertBitwiseResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	if len(got.Observed) != len(want.Observed) {
		t.Fatalf("%d sets, want %d", len(got.Observed), len(want.Observed))
	}
	for k := range want.Observed {
		if got.Observed[k] != want.Observed[k] {
			t.Fatalf("Observed[%d] = %v, want %v", k, got.Observed[k], want.Observed[k])
		}
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("Exceed[%d] = %d, want %d", k, got.Exceed[k], want.Exceed[k])
		}
		if got.PValues[k] != want.PValues[k] {
			t.Fatalf("PValues[%d] = %v, want %v", k, got.PValues[k], want.PValues[k])
		}
	}
}

// assertMatchesReference pins an engine result to the engine-free reference:
// observed statistics within 1e-9, exceedance counters equal.
func assertMatchesReference(t *testing.T, got, want *Result) {
	t.Helper()
	assertClose(t, "observed", got.Observed, want.Observed, 1e-9)
	for k := range want.Exceed {
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("Exceed[%d] = %d, reference %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
}

// TestMonteCarloReplayStable runs the packed pipeline at two dataset scales:
// the result must match ReferenceMonteCarlo, and a rerun must reproduce it
// bitwise with a byte-identical stripped event log.
func TestMonteCarloReplayStable(t *testing.T) {
	cases := []struct {
		name                  string
		patients, snps, tsets int
	}{
		{"small", 25, 60, 5},
		{"medium", 61, 200, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := testDataset(t, tc.patients, tc.snps, tc.tsets, 21)
			want, err := ReferenceMonteCarlo(ds, Options{Seed: 7}, 4)
			if err != nil {
				t.Fatal(err)
			}
			first, fp := monteCarloRun(t, ds, rdd.FaultProfile{}, 4)
			assertMatchesReference(t, first, want)
			second, fp2 := monteCarloRun(t, ds, rdd.FaultProfile{}, 4)
			assertBitwiseResult(t, second, first)
			if fp != fp2 {
				t.Fatal("stripped event log not byte-stable across reruns")
			}
		})
	}
}

// TestMonteCarloMatchesReferenceUnderChaos repeats the reference pin under the
// chaos profile: recovery must not move a single number off the fault-free
// run, which itself matches ReferenceMonteCarlo, and a seeded chaos replay
// must reproduce the stripped event log byte for byte.
func TestMonteCarloMatchesReferenceUnderChaos(t *testing.T) {
	ds := testDataset(t, 20, 40, 4, 7)
	want, err := ReferenceMonteCarlo(ds, Options{Seed: 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	chaos, fp := monteCarloRun(t, ds, chaosProfile, 5)
	assertMatchesReference(t, chaos, want)

	clean, fpClean := monteCarloRun(t, ds, rdd.FaultProfile{}, 5)
	assertBitwiseResult(t, chaos, clean)
	if fp == fpClean {
		t.Fatal("chaos profile injected nothing: event log equals the clean run's")
	}
	replay, fp2 := monteCarloRun(t, ds, chaosProfile, 5)
	assertBitwiseResult(t, replay, chaos)
	if fp != fp2 {
		t.Fatal("stripped event log not byte-stable across seeded chaos replays")
	}
}

// TestMarginalAsymptoticMatchesDirect pins the per-SNP asymptotic test bitwise
// to stats.Score, Variance, and ChiSquaredSurvival evaluated straight on the
// dataset's rows.
func TestMarginalAsymptoticMatchesDirect(t *testing.T) {
	ds := testDataset(t, 33, 90, 6, 3)
	inSet := map[int]bool{}
	for _, set := range ds.SNPSets {
		for _, j := range set.SNPs {
			inSet[j] = true
		}
	}
	for _, family := range []string{"cox", "gaussian"} {
		a := stagedAnalysis(t, testContext(t, 3), ds, Options{Family: family})
		got, err := a.MarginalAsymptotic()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(inSet) {
			t.Fatalf("%s: %d marginal results, want %d", family, len(got), len(inSet))
		}
		model, err := stats.NewAdjustedModel(family, ds.Phenotype, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			g := ds.Genotypes.Row(r.SNP)
			score, variance := stats.Score(model, g), model.Variance(g)
			want := MarginalResult{
				SNP: r.SNP, Score: score, Variance: variance,
				PValue: stats.ChiSquaredSurvival(stats.Chi2Stat(score, variance), 1),
			}
			if !inSet[r.SNP] || r != want {
				t.Fatalf("%s: marginal = %+v, direct %+v", family, r, want)
			}
		}
	}
}

// TestSetAsymptoticMatchesDirect pins the per-set asymptotic tests to
// stats.SKATAsymptotic and the burden formula evaluated on the dataset's rows.
func TestSetAsymptoticMatchesDirect(t *testing.T) {
	ds := testDataset(t, 33, 90, 6, 3)
	model, err := stats.NewAdjustedModel("gaussian", ds.Phenotype, nil)
	if err != nil {
		t.Fatal(err)
	}
	burden := func(rows [][]data.Genotype, w []float64) (observed, pvalue float64) {
		collapsed := make([]float64, model.Patients())
		u := make([]float64, model.Patients())
		for r, g := range rows {
			model.Contributions(g, u)
			for i, v := range u {
				collapsed[i] += w[r] * v
			}
		}
		var sum, sumSq float64
		for _, v := range collapsed {
			sum += v
			sumSq += v * v
		}
		return sum * sum, stats.ChiSquaredSurvival(stats.Chi2Stat(sum, sumSq), 1)
	}
	for _, stat := range []string{"skat", "burden"} {
		a := stagedAnalysis(t, testContext(t, 3), ds, Options{Family: "gaussian", SetStatistic: stat})
		got, err := a.SetAsymptotic()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ds.SNPSets) {
			t.Fatalf("%s: %d set results, want %d", stat, len(got), len(ds.SNPSets))
		}
		for k, set := range ds.SNPSets {
			rows := make([][]data.Genotype, len(set.SNPs))
			w := make([]float64, len(set.SNPs))
			for i, j := range set.SNPs {
				rows[i], w[i] = ds.Genotypes.Row(j), ds.Weights[j]
			}
			var observed, pvalue float64
			if stat == "skat" {
				if observed, pvalue, err = stats.SKATAsymptotic(model, rows, w); err != nil {
					t.Fatal(err)
				}
			} else {
				observed, pvalue = burden(rows, w)
			}
			r := got[k]
			if r.Set != k || r.SNPs != len(rows) ||
				math.Abs(r.Observed-observed) > 1e-9*math.Max(1, math.Abs(observed)) ||
				math.Abs(r.PValue-pvalue) > 1e-9 {
				t.Fatalf("%s set %d = %+v, direct observed %v p %v", stat, k, r, observed, pvalue)
			}
		}
	}
}

// TestWarmGenotypesCachesPackedBlocks pins the storage the 2-bit layout
// exists for: the cached filtered genotype matrix costs well under a byte per
// genotype, and ReleaseGenotypes drops it.
func TestWarmGenotypesCachesPackedBlocks(t *testing.T) {
	const patients, snps = 1000, 64
	ds := testDataset(t, patients, snps, 4, 5)
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 1 << 20, // whole file per partition: full blocks
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := stagedAnalysis(t, ctx, ds, Options{})
	if err := a.WarmGenotypes(); err != nil {
		t.Fatal(err)
	}
	cached := ctx.CachedBytes()
	if cached == 0 || cached > patients*snps/3 {
		t.Fatalf("cached packed genotype matrix = %d bytes for %d genotypes, want (0, %d]",
			cached, patients*snps, patients*snps/3)
	}
	a.ReleaseGenotypes()
	if after := ctx.CachedBytes(); after >= cached {
		t.Fatalf("ReleaseGenotypes left %d of %d cached bytes", after, cached)
	}
}

// TestColumnarWarmServesResampling checks the Warm/Release lifecycle: a
// Warm()ed analysis caches UBlocks, serves Replicate() identically to the
// cold path and in step with ReferenceMonteCarlo, and Release drops the cache.
func TestColumnarWarmServesResampling(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 30, 80, 5, 15)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 4})
	cold, err := a.Replicate(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	if ctx.CachedBytes() == 0 {
		t.Fatal("Warm cached nothing")
	}
	warm, err := a.Replicate(3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cold {
		if warm[k] != cold[k] {
			t.Fatalf("replicate[%d] = %v warm, %v cold", k, warm[k], cold[k])
		}
	}
	// Warm-served replicates tally to the reference's exceedance counters.
	const iters = 3
	want, err := ReferenceMonteCarlo(ds, Options{Seed: 4}, iters)
	if err != nil {
		t.Fatal(err)
	}
	counter := stats.NewCounter(want.Observed)
	for b := uint64(1); b <= iters; b++ {
		rep, err := a.Replicate(b)
		if err != nil {
			t.Fatal(err)
		}
		counter.Add(rep)
	}
	for k, n := range counter.Exceedances() {
		if n != want.Exceed[k] {
			t.Fatalf("warm exceed[%d] = %d, reference %d", k, n, want.Exceed[k])
		}
	}
	warmBytes := ctx.CachedBytes()
	a.Release()
	// Only the small cached weights RDD may remain.
	if got := ctx.CachedBytes(); got >= warmBytes {
		t.Fatalf("%d bytes cached after Release, want fewer than %d", got, warmBytes)
	}
}
