package core

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
	"sparkscore/internal/stats"
)

// chaosProfile crashes tasks, fails shuffle fetches, and loses a node
// mid-run.
var chaosProfile = rdd.FaultProfile{
	TaskCrashProb:    0.25,
	FetchFailureProb: 0.15,
	NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 8}},
}

// monteCarloRun executes one Monte Carlo analysis under the fault profile.
func monteCarloRun(t *testing.T, ds *data.Dataset, faults rdd.FaultProfile, iters, workers int) (*Result, replaytest.Observation) {
	t.Helper()
	return resampleRun(t, ds, faults, workers, func(a *Analysis) (*Result, error) { return a.MonteCarlo(iters) })
}

// resampleRun executes one resampling analysis under the fault profile and
// returns the result plus everything a seeded replay must reproduce.
func resampleRun(t *testing.T, ds *data.Dataset, faults rdd.FaultProfile, workers int, resample func(*Analysis) (*Result, error)) (*Result, replaytest.Observation) {
	t.Helper()
	var res *Result
	obs := replayRun(t, ds, faults, workers, func(a *Analysis) string {
		var err error
		if res, err = resample(a); err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		if err := WriteResult(&report, res); err != nil {
			t.Fatal(err)
		}
		return report.String()
	})
	return res, obs
}

// replayRun runs one analysis (seed 7) under the fault profile and returns
// everything a seeded replay must reproduce: the result as run renders it, the
// jobs' replay fingerprint and the event log.
func replayRun(t *testing.T, ds *data.Dataset, faults rdd.FaultProfile, workers int, run func(*Analysis) string) replaytest.Observation {
	t.Helper()
	var logBuf bytes.Buffer
	elw := rdd.NewEventLogWriter(&logBuf)
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 4 << 10,
		Seed:         11,
		Faults:       faults,
		Workers:      workers,
		Listeners:    []rdd.Listener{elw},
	})
	if err != nil {
		t.Fatal(err)
	}
	result := run(stagedAnalysis(t, ctx, ds, Options{Seed: 7}))
	if err := elw.Close(); err != nil {
		t.Fatal(err)
	}
	var fp bytes.Buffer
	for _, m := range ctx.Jobs() {
		fmt.Fprintf(&fp, "%+v\n", m)
	}
	return replaytest.Observation{Result: result, Fingerprint: fp.String(), Log: logBuf.String()}
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

// chaosIters is the replicate count of the replay and chaos pins: one whole
// batch and a 3-replicate tail batch, so injected faults land inside batched
// jobs and both tile shapes are in play.
const chaosIters = mcBatch + 3

// TestMonteCarloReplayStable runs the packed pipeline at two dataset scales:
// the result must match ReferenceMonteCarlo, and a rerun must reproduce it
// bitwise with a byte-identical event log.
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
			want, err := ReferenceMonteCarlo(ds, Options{Seed: 7}, chaosIters)
			if err != nil {
				t.Fatal(err)
			}
			first, obs := monteCarloRun(t, ds, rdd.FaultProfile{}, chaosIters, 0)
			assertMatchesReference(t, first, want)
			second, obs2 := monteCarloRun(t, ds, rdd.FaultProfile{}, chaosIters, 0)
			assertBitwiseResult(t, second, first)
			if obs.Log != obs2.Log {
				t.Fatal("event log not byte-stable across reruns")
			}
		})
	}
}

// TestMonteCarloMatchesReferenceUnderChaos repeats the reference pin under the
// chaos profile: recovery must not move a single number off the fault-free
// run, which itself matches ReferenceMonteCarlo, and a seeded chaos replay
// must reproduce report, job fingerprint and event log byte for byte
// whatever the host parallelism (the Workers ∈ {1, 2, 8} × 5 matrix).
func TestMonteCarloMatchesReferenceUnderChaos(t *testing.T) {
	// Seven genotype partitions, so 14 tasks a job: the node loss (after 8
	// tasks) takes cached genotype partitions with it during the observed job, the
	// batched jobs recompute them, and fetch failures land inside both.
	ds := testDataset(t, 61, 200, 9, 7)
	want, err := ReferenceMonteCarlo(ds, Options{Seed: 7}, chaosIters)
	if err != nil {
		t.Fatal(err)
	}
	var chaos *Result
	obs := replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		res, obs := monteCarloRun(t, ds, chaosProfile, chaosIters, workers)
		chaos = res
		return obs
	})
	assertMatchesReference(t, chaos, want)

	clean, obsClean := monteCarloRun(t, ds, rdd.FaultProfile{}, chaosIters, 0)
	assertBitwiseResult(t, chaos, clean)
	for _, want := range []string{`"type":"FetchFailure","data":\{"time":[^,]+,"job":2,`, `"type":"FetchFailure","data":\{"time":[^,]+,"job":3,`,
		`"type":"StageResubmitted"`, `"type":"NodeLost"`, "injected task crash"} {
		re := regexp.MustCompile(want)
		if !re.MatchString(obs.Log) || re.MatchString(obsClean.Log) {
			t.Errorf("%s: want it in the chaos log and not in the clean one; the pin is vacuous for it", want)
		}
	}
}

// TestMarginalAsymptoticMatchesDirect pins the per-SNP asymptotic test bitwise
// to the kernels evaluated straight on the dataset's rows: the score is
// stats.PackedRowScores on the SNP's packed row — the bits every resampling
// pass computes for it — and the variance Model.Variance on its genotypes.
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
			blk := data.NewGenoBlock(ds.Genotypes.Patients, 1)
			if err := blk.AppendRow(r.SNP, g); err != nil {
				t.Fatal(err)
			}
			score := stats.PackedRowScores(blk, model.ScoreResiduals(), nil)[0]
			variance := model.Variance(g)
			pvalue := stats.ChiSquaredSurvival(stats.Chi2Stat(score, variance), 1)
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"score", r.Score, score}, {"variance", r.Variance, variance}, {"p-value", r.PValue, pvalue}} {
				if !inSet[r.SNP] || math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("%s SNP %d: %s %v, direct %v", family, r.SNP, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestSetAsymptoticMatchesDirect pins the per-set asymptotic tests. The
// observed statistic is the resampling path's to the bit — Observed() and
// MonteCarlo(B).Observed — for SKAT and burden on the Cox and Gaussian scores,
// and the Liu p-value is within 1e-9 of the set's test evaluated on the
// dataset's rows with every sum in patient order: SKAT's observed statistic
// against its Liu moments, and burden's against the 1-df chi-square of its
// collapsed contributions' variance, the closed form of its rank-one Liu match.
func TestSetAsymptoticMatchesDirect(t *testing.T) {
	ds := testDataset(t, 33, 90, 6, 3)
	for _, family := range []string{"cox", "gaussian"} {
		model, err := stats.NewAdjustedModel(family, ds.Phenotype, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, stat := range []string{"skat", "burden"} {
			a := stagedAnalysis(t, testContext(t, 3), ds, Options{Family: family, SetStatistic: stat})
			got, err := a.SetAsymptotic()
			if err != nil {
				t.Fatal(err)
			}
			observed, err := a.Observed()
			if err != nil {
				t.Fatal(err)
			}
			mc, err := a.MonteCarlo(3)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ds.SNPSets) {
				t.Fatalf("%s/%s: %d set results, want %d", family, stat, len(got), len(ds.SNPSets))
			}
			for k, set := range ds.SNPSets {
				r := got[k]
				if r.Set != k || r.SNPs != len(set.SNPs) ||
					math.Float64bits(r.Observed) != math.Float64bits(observed[k]) ||
					math.Float64bits(r.Observed) != math.Float64bits(mc.Observed[k]) {
					t.Fatalf("%s/%s set %d = %+v, Observed() %v, MonteCarlo observed %v", family, stat, k, r, observed[k], mc.Observed[k])
				}
				if pvalue := directSetPValue(t, model, stat, ds, set); math.Abs(r.PValue-pvalue) > 1e-9 {
					t.Fatalf("%s/%s set %d: p %v, direct %v", family, stat, k, r.PValue, pvalue)
				}
			}
		}
	}
}

// directSetPValue evaluates one set's asymptotic p-value on the dataset's rows
// with per-row Model.Contributions, all sums in patient order.
func directSetPValue(t *testing.T, model stats.Model, stat string, ds *data.Dataset, set data.SNPSet) float64 {
	t.Helper()
	n := model.Patients()
	v := make([][]float64, len(set.SNPs))
	for r, j := range set.SNPs {
		v[r] = make([]float64, n)
		model.Contributions(ds.Genotypes.Row(j), v[r])
		for i := range v[r] {
			v[r][i] *= ds.Weights[j]
		}
	}
	if stat == "burden" {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			collapsed := 0.0
			for _, row := range v {
				collapsed += row[i]
			}
			sum += collapsed
			sumSq += collapsed * collapsed
		}
		return stats.ChiSquaredSurvival(stats.Chi2Stat(sum, sumSq), 1)
	}
	mo := stats.ComputeSKATMoments(v)
	observed := 0.0
	for _, row := range v {
		s := 0.0
		for _, x := range row {
			s += x
		}
		observed += s * s
	}
	return stats.LiuPValue(observed, mo)
}

// TestWarmCachesPackedBlocks pins the storage the 2-bit layout exists for:
// what Warm caches is the packed filtered genotype matrix and nothing else —
// the sum of its blocks' ApproxBytes, well under a byte per genotype — and
// Release drops it.
func TestWarmCachesPackedBlocks(t *testing.T) {
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
	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	cached := ctx.CachedBytes()
	if cached == 0 || cached > patients*snps/3 {
		t.Fatalf("cached packed genotype matrix = %d bytes for %d genotypes, want (0, %d]",
			cached, patients*snps, patients*snps/3)
	}
	blocks, err := rdd.Collect(a.warm)
	if err != nil {
		t.Fatal(err)
	}
	var packed int64
	for _, b := range blocks {
		packed += b.ApproxBytes()
	}
	if cached != packed {
		t.Fatalf("Warm cached %d bytes, its blocks' ApproxBytes sum to %d", cached, packed)
	}
	a.Release()
	if after := ctx.CachedBytes(); after != 0 {
		t.Fatalf("Release left %d of %d cached bytes", after, cached)
	}
}

// TestColumnarWarmServesResampling checks the Warm/Release lifecycle: a
// Warm()ed analysis caches packed blocks, serves Replicate() identically to the
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
	a.Release()
	if got := ctx.CachedBytes(); got != 0 {
		t.Fatalf("%d bytes cached after Release, want none", got)
	}
}
