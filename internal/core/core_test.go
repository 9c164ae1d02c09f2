package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// ReferenceObserved computes S_k^0 sequentially: the oracle of Algorithm 1.
func ReferenceObserved(ds *data.Dataset, opts Options) ([]float64, error) {
	st, err := stats.NewSetStatistic(opts.SetStatistic)
	if err != nil {
		return nil, err
	}
	return referenceSetStats(ds, opts.family(), st, ds.Phenotype)
}

// Release drops the cached matrix retained by Warm, so a test can see the
// bytes go.
func (a *Analysis) Release() {
	if a.warm != nil {
		a.warm.Unpersist()
		a.warm = nil
	}
}

func testContext(t testing.TB, nodes int) *rdd.Context {
	t.Helper()
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: nodes, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 4 << 10, // small blocks so test files span partitions
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func testDataset(t testing.TB, patients, snps, sets int, seed uint64) *data.Dataset {
	t.Helper()
	ds, err := gen.Generate(gen.Config{Patients: patients, SNPs: snps, SNPSets: sets}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func stagedAnalysis(t testing.TB, ctx *rdd.Context, ds *data.Dataset, opts Options) *Analysis {
	t.Helper()
	paths, err := StageDataset(ctx, ds, "test")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalysis(ctx, paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func assertClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		scale := math.Max(1, math.Abs(want[i]))
		if diff/scale > tol {
			t.Fatalf("%s[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func TestObservedMatchesReference(t *testing.T) {
	ctx := testContext(t, 3)
	ds := testDataset(t, 40, 120, 8, 1)
	a := stagedAnalysis(t, ctx, ds, Options{})
	got, err := a.Observed()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceObserved(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "S0", got, want, 1e-9)
}

func TestObservedAllFamilies(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 30, 60, 5, 2)
	for _, family := range []string{"cox", "gaussian"} {
		a := stagedAnalysis(t, ctx, ds, Options{Family: family, Seed: 3})
		got, err := a.Observed()
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		want, err := ReferenceObserved(ds, Options{Family: family})
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, family, got, want, 1e-9)
	}
}

func TestBinomialFamily(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 30, 40, 4, 3)
	// Binarise the outcome for the binomial family.
	for i := range ds.Phenotype.Y {
		if ds.Phenotype.Y[i] > 12 {
			ds.Phenotype.Y[i] = 1
		} else {
			ds.Phenotype.Y[i] = 0
		}
	}
	a := stagedAnalysis(t, ctx, ds, Options{Family: "binomial"})
	got, err := a.Observed()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceObserved(ds, Options{Family: "binomial"})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "binomial", got, want, 1e-9)
}

func TestUnknownFamilyRejectedEarly(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 10, 10, 2, 4)
	paths, err := StageDataset(ctx, ds, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalysis(ctx, paths, Options{Family: "poisson"}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestMissingFilesRejected(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 10, 10, 2, 4)
	paths, err := StageDataset(ctx, ds, "test")
	if err != nil {
		t.Fatal(err)
	}
	broken := paths
	broken.Genotypes = "missing"
	if _, err := NewAnalysis(ctx, broken, Options{}); err == nil {
		t.Fatal("missing genotype file accepted")
	}
	broken = paths
	broken.Phenotype = "missing"
	if _, err := NewAnalysis(ctx, broken, Options{}); err == nil {
		t.Fatal("missing phenotype file accepted")
	}
}

func TestPermutationMatchesReference(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 25, 50, 5, 5)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 7})
	got, err := a.Permutation(6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferencePermutation(ds, Options{Seed: 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "observed", got.Observed, want.Observed, 1e-9)
	if got.Iterations != 6 {
		t.Fatalf("iterations = %d", got.Iterations)
	}
	for k := range want.Exceed {
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("exceed[%d] = %d, want %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
	assertClose(t, "pvalues", got.PValues, want.PValues, 1e-12)
}

func TestMonteCarloMatchesReference(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 25, 50, 5, 6)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 9})
	got, err := a.MonteCarlo(8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceMonteCarlo(ds, Options{Seed: 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "observed", got.Observed, want.Observed, 1e-9)
	for k := range want.Exceed {
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("exceed[%d] = %d, want %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
}

func TestMonteCarloCacheDoesNotChangeResults(t *testing.T) {
	ds := testDataset(t, 20, 40, 4, 7)
	run := func(opts Options) *Result {
		ctx := testContext(t, 2)
		a := stagedAnalysis(t, ctx, ds, opts)
		res, err := a.MonteCarlo(5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached := run(Options{Seed: 11})
	uncached := run(Options{Seed: 11}.WithoutCache())
	assertClose(t, "observed", uncached.Observed, cached.Observed, 1e-9)
	for k := range cached.Exceed {
		if cached.Exceed[k] != uncached.Exceed[k] {
			t.Fatalf("cache changed exceedances at set %d", k)
		}
	}
}

func TestMonteCarloCacheReducesVirtualTime(t *testing.T) {
	ds := testDataset(t, 60, 400, 10, 8)
	run := func(opts Options) float64 {
		ctx := testContext(t, 2)
		a := stagedAnalysis(t, ctx, ds, opts)
		ctx.ResetClock()
		if _, err := a.MonteCarlo(10); err != nil {
			t.Fatal(err)
		}
		return ctx.VirtualTime()
	}
	withCache := run(Options{Seed: 1})
	withoutCache := run(Options{Seed: 1}.WithoutCache())
	if withCache >= withoutCache {
		t.Fatalf("cached MC %.4fs >= uncached %.4fs", withCache, withoutCache)
	}
}

func TestPermutationDeterministicAcrossRuns(t *testing.T) {
	ds := testDataset(t, 20, 30, 3, 9)
	run := func() *Result {
		ctx := testContext(t, 2)
		a := stagedAnalysis(t, ctx, ds, Options{Seed: 21})
		res, err := a.Permutation(4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for k := range a.Exceed {
		if a.Exceed[k] != b.Exceed[k] {
			t.Fatalf("permutation not reproducible at set %d", k)
		}
	}
}

func TestAnalysisSurvivesExecutorFailure(t *testing.T) {
	ctx := testContext(t, 3)
	ds := testDataset(t, 25, 60, 5, 10)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 2})
	want, err := ReferenceMonteCarlo(ds, Options{Seed: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx.FailExecutorAfter(0, 20) // mid-analysis failure
	got, err := a.MonteCarlo(5)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "observed", got.Observed, want.Observed, 1e-9)
	for k := range want.Exceed {
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("post-failure exceed[%d] = %d, want %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
}

func TestNegativeIterationsRejected(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 10, 10, 2, 11)
	a := stagedAnalysis(t, ctx, ds, Options{})
	if _, err := a.Permutation(-1); err == nil {
		t.Fatal("negative permutation iterations accepted")
	}
	if _, err := a.MonteCarlo(-1); err == nil {
		t.Fatal("negative Monte Carlo iterations accepted")
	}
}

func TestZeroIterationsYieldObservedOnly(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 15, 20, 3, 12)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 1})
	res, err := a.MonteCarlo(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.PValues != nil {
		t.Fatalf("zero-iteration result %+v", res)
	}
	want, _ := ReferenceObserved(ds, Options{})
	assertClose(t, "observed", res.Observed, want, 1e-9)
}

func TestMarginalAsymptotic(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 200, 50, 5, 13)
	a := stagedAnalysis(t, ctx, ds, Options{})
	results, err := a.MarginalAsymptotic()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("%d marginal results, want 50", len(results))
	}
	seen := map[int]bool{}
	small := 0
	for _, r := range results {
		if r.PValue < 0 || r.PValue > 1 {
			t.Fatalf("SNP %d p-value %v", r.SNP, r.PValue)
		}
		if r.Variance < 0 {
			t.Fatalf("SNP %d variance %v", r.SNP, r.Variance)
		}
		if seen[r.SNP] {
			t.Fatalf("SNP %d reported twice", r.SNP)
		}
		seen[r.SNP] = true
		if r.PValue < 0.01 {
			small++
		}
	}
	// Under the global null, about 1% of 50 SNPs should be below 0.01;
	// more than 10 would indicate a broken test statistic.
	if small > 10 {
		t.Fatalf("%d of 50 null SNPs significant at 0.01", small)
	}
}

// TestMalformedGenotypeLinesFailTheJob feeds the ingest (data.ParseGenoText)
// one bad line at a time. Each must abort the job as a task failure whose
// message names the offending SNP or field, so a bad line in a
// multi-gigabyte genotype file is findable from the message alone, wherever
// the DFS blocks put it. A zero-byte line is not bad: it is skipped, as
// every dataset table skips one.
func TestMalformedGenotypeLinesFailTheJob(t *testing.T) {
	ds := testDataset(t, 3, 6, 1, 4)
	ds.SNPSets[0].SNPs = []int{0, 1, 2, 3, 4, 5} // every SNP passes the pushdown filter
	// observed scores text as the staged genotype file.
	observed := func(text string, blockSize int) ([]float64, error) {
		ctx, err := rdd.New(rdd.Config{
			Cluster:      cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge},
			DFSBlockSize: blockSize,
			Seed:         11,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := stagedAnalysis(t, ctx, ds, Options{})
		if _, err := ctx.FS().Write(a.genoPath, []byte(text)); err != nil {
			t.Fatal(err)
		}
		return a.Observed()
	}
	// The first line is 11 bytes, so 11-byte DFS blocks end on the line
	// under test: it must be read there as it is mid-block. Trailing and
	// repeated whitespace is tolerated, not an extra field.
	const first, last = "4\t0  1 2 \t\n", "\n1\t0 1 2\n"
	for _, tc := range []struct{ line, msg string }{
		{"no-tab-here", `missing tab: "no-tab-here"`},
		{"x\t0 1 2", `bad SNP id "x"`},
		{"-2\t0 1 2", `bad SNP id "-2"`},
		{"   ", "empty genotype line"},
		{"0\t0 1", "SNP 0: 2 genotypes, want 3"},             // missing genotype
		{"0\t0 1 2 1", "SNP 0: 4 genotypes, want 3"},         // extra genotype
		{"5\t0 1 7", `SNP 5: field 3: bad genotype "7"`},     // out-of-domain code
		{"5\t0 x 2", `SNP 5: field 2: bad genotype "x"`},     // non-numeric code
		{"5\t0 1 2.0", `SNP 5: field 3: bad genotype "2.0"`}, // non-integer code
	} {
		for _, blockSize := range []int{4 << 10, 11} {
			_, err := observed(first+tc.line+last, blockSize)
			var aborted *rdd.TaskAbortedError
			if !errors.As(err, &aborted) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("line %q, %d-byte blocks: Observed() = %v, want a task abort containing %q",
					tc.line, blockSize, err, tc.msg)
			}
		}
	}
	want, err := observed(first+last[1:], 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockSize := range []int{4 << 10, 11} {
		got, err := observed(first+last, blockSize)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("a blank line, %d-byte blocks: Observed() = %v, %v; want %v as without it", blockSize, got, err, want)
		}
	}
}

func TestStageDatasetValidates(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 10, 10, 2, 14)
	ds.Weights = ds.Weights[:5] // corrupt
	if _, err := StageDataset(ctx, ds, "bad"); err == nil {
		t.Fatal("invalid dataset staged")
	}
}

func TestWarmKeepsCacheAcrossCalls(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 30, 80, 5, 15)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 4})
	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	if ctx.CachedBytes() == 0 {
		t.Fatal("Warm cached nothing")
	}
	res1, err := a.MonteCarlo(3)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.CachedBytes() == 0 {
		t.Fatal("MonteCarlo unpersisted the warm cache")
	}
	res2, err := a.MonteCarlo(3)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "observed", res2.Observed, res1.Observed, 1e-9)
	want, err := ReferenceMonteCarlo(ds, Options{Seed: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Exceed {
		if res1.Exceed[k] != want.Exceed[k] {
			t.Fatalf("warm exceed[%d] = %d, want %d", k, res1.Exceed[k], want.Exceed[k])
		}
	}
	warmBytes := ctx.CachedBytes()
	a.Release()
	if got := ctx.CachedBytes(); got >= warmBytes {
		t.Fatalf("%d bytes cached after Release, want fewer than %d", got, warmBytes)
	}
	a.Release() // idempotent
}

func TestBurdenMatchesReference(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 30, 80, 6, 16)
	opts := Options{SetStatistic: "burden", Seed: 8}
	a := stagedAnalysis(t, ctx, ds, opts)
	got, err := a.MonteCarlo(6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceMonteCarlo(ds, opts, 6)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "burden observed", got.Observed, want.Observed, 1e-9)
	for k := range want.Exceed {
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("burden exceed[%d] = %d, want %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
}

func TestBurdenDiffersFromSKAT(t *testing.T) {
	ds := testDataset(t, 30, 40, 4, 17)
	skat, err := ReferenceObserved(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	burden, err := ReferenceObserved(ds, Options{SetStatistic: "burden"})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range skat {
		if math.Abs(skat[k]-burden[k]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Fatal("burden and SKAT produced identical statistics on random data")
	}
}

func TestUnknownSetStatisticRejected(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 10, 10, 2, 18)
	paths, err := StageDataset(ctx, ds, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalysis(ctx, paths, Options{SetStatistic: "acat"}); err == nil {
		t.Fatal("unknown set statistic accepted")
	}
	if _, err := ReferenceObserved(ds, Options{SetStatistic: "acat"}); err == nil {
		t.Fatal("reference accepted unknown set statistic")
	}
}

func TestBetaWeightedAnalysis(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 40, 60, 5, 19)
	var err error
	ds.Weights, err = stats.BetaMAFWeights(ds.Genotypes, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 6})
	got, err := a.Observed()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceObserved(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "beta-weighted S0", got, want, 1e-9)
}

func TestAdjustedAnalysisMatchesReference(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 60, 50, 5, 20)
	ds.Covariates = gen.Covariates(gen.Config{Patients: 60, SNPs: 50, SNPSets: 5}, rng.New(3))
	opts := Options{Seed: 10}
	a := stagedAnalysis(t, ctx, ds, opts)
	got, err := a.MonteCarlo(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceMonteCarlo(ds, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "adjusted observed", got.Observed, want.Observed, 1e-9)
	for k := range want.Exceed {
		if got.Exceed[k] != want.Exceed[k] {
			t.Fatalf("adjusted exceed[%d] = %d, want %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
}

func TestAdjustedAnalysisDiffersFromUnadjusted(t *testing.T) {
	ds := testDataset(t, 80, 30, 3, 21)
	cov := gen.Covariates(gen.Config{Patients: 80, SNPs: 30, SNPSets: 3}, rng.New(5))
	// Make the covariate matter: shift the outcome by the first covariate.
	for i := range ds.Phenotype.Y {
		ds.Phenotype.Y[i] += 5 * cov.Rows[i][0]
	}
	plain, err := ReferenceObserved(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds.Covariates = cov
	adjusted, err := ReferenceObserved(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range plain {
		if math.Abs(plain[k]-adjusted[k]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Fatal("covariate adjustment changed nothing")
	}
}

func TestPermutationRefusesCovariates(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 20, 10, 2, 22)
	ds.Covariates = gen.Covariates(gen.Config{Patients: 20, SNPs: 10, SNPSets: 2}, rng.New(7))
	a := stagedAnalysis(t, ctx, ds, Options{})
	if _, err := a.Permutation(2); err == nil {
		t.Fatal("permutation with covariates accepted")
	}
	if _, err := ReferencePermutation(ds, Options{}, 2); err == nil {
		t.Fatal("reference permutation with covariates accepted")
	}
	// Monte Carlo must still work.
	if _, err := a.MonteCarlo(2); err != nil {
		t.Fatalf("Monte Carlo with covariates failed: %v", err)
	}
}

func TestCovariatePatientMismatchRejected(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 20, 10, 2, 23)
	paths, err := StageDataset(ctx, ds, "test")
	if err != nil {
		t.Fatal(err)
	}
	// Stage covariates for a different cohort size.
	short := gen.Covariates(gen.Config{Patients: 5, SNPs: 10, SNPSets: 2}, rng.New(1))
	var buf bytes.Buffer
	if err := data.WriteCovariates(&buf, short); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.FS().Write("test/covariates.txt", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	paths.Covariates = "test/covariates.txt"
	if _, err := NewAnalysis(ctx, paths, Options{}); err == nil {
		t.Fatal("covariate/phenotype size mismatch accepted")
	}
}

func TestSetAsymptoticAgreesWithMonteCarlo(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 300, 40, 5, 24)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 12})
	asym, err := a.SetAsymptotic()
	if err != nil {
		t.Fatal(err)
	}
	if len(asym) != 5 {
		t.Fatalf("%d asymptotic results, want 5", len(asym))
	}
	mc, err := a.MonteCarlo(800)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range asym {
		if r.PValue < 0 || r.PValue > 1 {
			t.Fatalf("set %d p = %v", r.Set, r.PValue)
		}
		if math.Float64bits(r.Observed) != math.Float64bits(mc.Observed[r.Set]) {
			t.Fatalf("set %d observed %v vs MC %v", r.Set, r.Observed, mc.Observed[r.Set])
		}
		if diff := math.Abs(r.PValue - mc.PValues[r.Set]); diff > 0.12 {
			t.Fatalf("set %d (%d SNPs): asymptotic p %.4f vs MC p %.4f",
				r.Set, r.SNPs, r.PValue, mc.PValues[r.Set])
		}
	}
}

func TestSetAsymptoticBurden(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 200, 30, 4, 25)
	a := stagedAnalysis(t, ctx, ds, Options{SetStatistic: "burden", Seed: 13})
	asym, err := a.SetAsymptotic()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := a.MonteCarlo(600)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range asym {
		if math.Float64bits(r.Observed) != math.Float64bits(mc.Observed[r.Set]) {
			t.Fatalf("burden set %d observed %v vs MC %v", r.Set, r.Observed, mc.Observed[r.Set])
		}
		if diff := math.Abs(r.PValue - mc.PValues[r.Set]); diff > 0.12 {
			t.Fatalf("burden set %d: asymptotic p %.4f vs MC p %.4f", r.Set, r.PValue, mc.PValues[r.Set])
		}
	}
}

func TestSetAsymptoticCoversEverySet(t *testing.T) {
	ctx := testContext(t, 2)
	ds := testDataset(t, 40, 60, 7, 26)
	a := stagedAnalysis(t, ctx, ds, Options{})
	asym, err := a.SetAsymptotic()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for _, r := range asym {
		if seen[r.Set] {
			t.Fatalf("set %d reported twice", r.Set)
		}
		seen[r.Set] = true
		if r.Name != ds.SNPSets[r.Set].Name {
			t.Fatalf("set %d name %q, want %q", r.Set, r.Name, ds.SNPSets[r.Set].Name)
		}
		if r.SNPs != len(ds.SNPSets[r.Set].SNPs) {
			t.Fatalf("set %d has %d SNPs, want %d", r.Set, r.SNPs, len(ds.SNPSets[r.Set].SNPs))
		}
		total += r.SNPs
	}
	if len(asym) != 7 {
		t.Fatalf("%d sets reported, want 7", len(asym))
	}
	if total != ds.SNPSets.TotalMembers() {
		t.Fatalf("total member SNPs %d, want %d", total, ds.SNPSets.TotalMembers())
	}
}

// ReadResultPValues parses the pvalue column of a WriteResult TSV back into
// a slice indexed by set (NA entries become -1), so the writer can be tested
// by a round trip.
func ReadResultPValues(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	var out []float64
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if !strings.HasPrefix(line, "set\t") {
				return nil, fmt.Errorf("core: not a result file (header %.40q)", line)
			}
			continue
		}
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 7 {
			return nil, fmt.Errorf("core: result row has %d fields, want 7", len(fields))
		}
		if fields[6] == "NA" {
			out = append(out, -1)
			continue
		}
		p, err := strconv.ParseFloat(fields[6], 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad pvalue %q", fields[6])
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func TestWriteResultRoundTrip(t *testing.T) {
	ctx := testContext(t, 1)
	ds := testDataset(t, 20, 15, 3, 27)
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 1})
	res, err := a.MonteCarlo(10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	ps, err := ReadResultPValues(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "round-trip pvalues", ps, res.PValues, 1e-9)

	// Zero-iteration results carry NA p-values.
	res0, err := a.MonteCarlo(0)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteResult(&buf, res0); err != nil {
		t.Fatal(err)
	}
	ps0, err := ReadResultPValues(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps0 {
		if p != -1 {
			t.Fatalf("NA p-value parsed as %v", p)
		}
	}
}

func TestReadResultPValuesErrors(t *testing.T) {
	if _, err := ReadResultPValues(bytes.NewReader([]byte("bogus\n"))); err == nil {
		t.Fatal("bad header accepted")
	}
	bad := "set\tname\tsnps\tobserved\texceed\titerations\tpvalue\n1\tx\n"
	if _, err := ReadResultPValues(bytes.NewReader([]byte(bad))); err == nil {
		t.Fatal("short row accepted")
	}
	bad = "set\tname\tsnps\tobserved\texceed\titerations\tpvalue\n0\tx\t1\t2\t3\t4\tzz\n"
	if _, err := ReadResultPValues(bytes.NewReader([]byte(bad))); err == nil {
		t.Fatal("bad pvalue accepted")
	}
}

func TestDiskSpillDoesNotChangeResults(t *testing.T) {
	ds := testDataset(t, 30, 60, 5, 28)
	run := func(opts Options) *Result {
		ctx := testContext(t, 2)
		a := stagedAnalysis(t, ctx, ds, opts)
		res, err := a.MonteCarlo(6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	memOnly := run(Options{Seed: 14})
	spilled := run(Options{Seed: 14, DiskSpill: true})
	assertClose(t, "observed", spilled.Observed, memOnly.Observed, 1e-9)
	for k := range memOnly.Exceed {
		if memOnly.Exceed[k] != spilled.Exceed[k] {
			t.Fatalf("disk spill changed exceedances at set %d", k)
		}
	}
}

func TestMonteCarloResultsUnchangedUnderFaults(t *testing.T) {
	// The lineage-recovery claim, end to end: crashing tasks, losing shuffle
	// fetches, and killing a whole machine mid-analysis must not change a
	// single number of the inference.
	ds := testDataset(t, 20, 40, 4, 7)
	run := func(faults rdd.FaultProfile) (*Result, rdd.RecoveryStats) {
		ctx, err := rdd.New(rdd.Config{
			Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
			DFSBlockSize: 4 << 10,
			Seed:         11,
			Faults:       faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := stagedAnalysis(t, ctx, ds, Options{Seed: 11})
		res, err := a.MonteCarlo(5)
		if err != nil {
			t.Fatal(err)
		}
		return res, rdd.SummarizeRecovery(ctx.Jobs())
	}
	clean, cleanRec := run(rdd.FaultProfile{})
	chaos, chaosRec := run(chaosProfile)
	if cleanRec.TaskRetries != 0 || cleanRec.StageAttempts != 0 {
		t.Fatalf("fault-free run recorded recovery work: %+v", cleanRec)
	}
	if chaosRec.TaskRetries == 0 && chaosRec.StageAttempts == 0 {
		t.Fatalf("chaos profile injected nothing: %+v", chaosRec)
	}
	assertClose(t, "observed", chaos.Observed, clean.Observed, 1e-9)
	for k := range clean.Exceed {
		if clean.Exceed[k] != chaos.Exceed[k] {
			t.Fatalf("faults changed exceedances at set %d: %d != %d",
				k, chaos.Exceed[k], clean.Exceed[k])
		}
	}
}
