package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// batchBoundaries are the replicate counts around mcBatch: nothing, one
// column, one short of a batch, exactly one, one over, and two batches plus a
// 3-replicate tail (whole tiles and tail columns in the same run).
var batchBoundaries = []int{0, 1, mcBatch - 1, mcBatch, mcBatch + 1, 2*mcBatch + 3}

// batchConfig is one analysis the boundary tests sweep.
type batchConfig struct {
	name string
	ds   *data.Dataset
	opts Options
}

// batchConfigs covers both set statistics, on the Cox score and on the
// covariate-adjusted Gaussian score, and every other residual panel once: the
// Binomial family and the covariate-adjusted Cox and Binomial models (the
// plain Gaussian panel is the adjusted one's with other residuals).
func batchConfigs(t *testing.T) []batchConfig {
	cox := testDataset(t, 25, 120, 6, 31)
	adjusted := testDataset(t, 40, 120, 6, 32)
	adjusted.Covariates = gen.Covariates(gen.Config{Patients: 40, SNPs: 120, SNPSets: 6}, rng.New(3))
	binary, adjustedBinary := *cox, *adjusted
	binary.Phenotype, adjustedBinary.Phenotype = binarised(cox.Phenotype), binarised(adjusted.Phenotype)
	return []batchConfig{
		{"cox/skat", cox, Options{Seed: 5}},
		{"cox/burden", cox, Options{Seed: 5, SetStatistic: "burden"}},
		{"adjusted-gaussian/skat", adjusted, Options{Seed: 6, Family: "gaussian"}},
		{"adjusted-gaussian/burden", adjusted, Options{Seed: 6, Family: "gaussian", SetStatistic: "burden"}},
		{"binomial/skat", &binary, Options{Seed: 7, Family: "binomial"}},
		{"adjusted-cox/skat", adjusted, Options{Seed: 8}},
		{"adjusted-binomial/skat", &adjustedBinary, Options{Seed: 9, Family: "binomial"}},
	}
}

// binarised returns the phenotype with its outcome cut at the median-ish 12
// months, for the binomial family.
func binarised(ph *data.Phenotype) *data.Phenotype {
	out := data.NewPhenotype(ph.Patients())
	copy(out.Event, ph.Event)
	for i, y := range ph.Y {
		if y > 12 {
			out.Y[i] = 1
		}
	}
	return out
}

// TestMonteCarloBatchBoundaries pins MonteCarlo(B) to ReferenceMonteCarlo at
// every batch boundary, for every configuration and persistence mode.
func TestMonteCarloBatchBoundaries(t *testing.T) {
	for _, cfg := range batchConfigs(t) {
		for _, storage := range []struct {
			name string
			with func(Options) Options
		}{
			{"cached", func(o Options) Options { return o }},
			{"uncached", func(o Options) Options { o.NoCache = true; return o }},
			{"disk-spill", func(o Options) Options { o.DiskSpill = true; return o }},
		} {
			t.Run(cfg.name+"/"+storage.name, func(t *testing.T) {
				for _, iters := range batchBoundaries {
					want, err := ReferenceMonteCarlo(cfg.ds, cfg.opts, iters)
					if err != nil {
						t.Fatal(err)
					}
					got, err := stagedAnalysis(t, testContext(t, 2), cfg.ds, storage.with(cfg.opts)).MonteCarlo(iters)
					if err != nil {
						t.Fatal(err)
					}
					if got.Iterations != iters {
						t.Fatalf("B=%d: result counts %d iterations", iters, got.Iterations)
					}
					assertMatchesReference(t, got, want)
				}
			})
		}
	}
}

// TestReplicateIsTheBatchColumn is the bit-level contract between the served
// unit and the batch run: for every boundary B, the per-replicate statistics
// MonteCarlo(B) tallies are, bit for bit, what Replicate(k) returns for
// k = 1 … B — against a Warm()ed analysis and a cold one — and tallying those
// reproduces MonteCarlo(B)'s counters.
func TestReplicateIsTheBatchColumn(t *testing.T) {
	most := batchBoundaries[len(batchBoundaries)-1]
	for _, cfg := range batchConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			served := map[string][][]float64{}
			for _, mode := range []string{"cold", "warm"} {
				a := stagedAnalysis(t, testContext(t, 2), cfg.ds, cfg.opts)
				if mode == "warm" {
					if err := a.Warm(); err != nil {
						t.Fatal(err)
					}
				}
				for k := 1; k <= most; k++ {
					s, err := a.Replicate(uint64(k))
					if err != nil {
						t.Fatal(err)
					}
					served[mode] = append(served[mode], s)
				}
			}
			for _, iters := range batchBoundaries {
				a := stagedAnalysis(t, testContext(t, 2), cfg.ds, cfg.opts)
				blocks, release, err := a.source(true)
				if err != nil {
					t.Fatal(err)
				}
				var batched [][]float64
				err = a.replicates(blocks, iters, func(s []float64) { batched = append(batched, s) })
				release()
				if err != nil {
					t.Fatal(err)
				}
				if len(batched) != iters {
					t.Fatalf("B=%d: %d replicates visited", iters, len(batched))
				}
				res, err := a.MonteCarlo(iters)
				if err != nil {
					t.Fatal(err)
				}
				for mode, singles := range served {
					counter := stats.NewCounter(res.Observed)
					for k, s := range batched {
						for set := range s {
							if s[set] != singles[k][set] {
								t.Fatalf("B=%d replicate %d set %d: batch %v, %s Replicate %v",
									iters, k+1, set, s[set], mode, singles[k][set])
							}
						}
						counter.Add(singles[k])
					}
					if got := fmt.Sprint(counter.Exceedances()); got != fmt.Sprint(res.Exceed) {
						t.Fatalf("B=%d: %s replicates tally to %s, MonteCarlo to %v", iters, mode, got, res.Exceed)
					}
				}
			}
		})
	}
}

// workersContext is testContext on three nodes with the host parallelism
// pinned.
func workersContext(t *testing.T, workers int, faults rdd.FaultProfile) *rdd.Context {
	t.Helper()
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 4 << 10,
		Seed:         11,
		Faults:       faults,
		Workers:      workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestObservedSameBitsWarmOrCold pins the one summation order every pass now
// shares: the observed statistics are the same bits from a cold analysis, a
// Warm()ed one, MonteCarlo and Permutation, whatever the host parallelism.
// When a warmed analysis summed a cached U in patient order and a cold one
// ran PackedRowScores, all ten statistics of this fixture differed in their
// last digits.
func TestObservedSameBitsWarmOrCold(t *testing.T) {
	ds := testDataset(t, 200, 300, 10, 41)
	var ref []float64
	for _, workers := range []int{1, 2, 8} {
		a := stagedAnalysis(t, workersContext(t, workers, rdd.FaultProfile{}), ds, Options{Seed: 3})
		cold, err := a.Observed()
		if err != nil {
			t.Fatal(err)
		}
		perm, err := a.Permutation(0)
		if err != nil {
			t.Fatal(err)
		}
		coldMC, err := a.MonteCarlo(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Warm(); err != nil {
			t.Fatal(err)
		}
		warm, err := a.Observed()
		if err != nil {
			t.Fatal(err)
		}
		warmMC, err := a.MonteCarlo(0)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = cold
		}
		for name, got := range map[string][]float64{
			"cold Observed()": cold, "Permutation(0).Observed": perm.Observed, "cold MonteCarlo(0).Observed": coldMC.Observed,
			"warm Observed()": warm, "warm MonteCarlo(0).Observed": warmMC.Observed,
		} {
			for k := range ref {
				if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
					t.Fatalf("workers=%d set %d: %s = %v, the first cold Observed() %v", workers, k, name, got[k], ref[k])
				}
			}
		}
	}
}

// TestBatchColumnsAreReplicatesUnderChaos is TestReplicateIsTheBatchColumn
// with faults injected and the host parallelism varied: the per-replicate
// statistics a batched run hands out — one whole batch and a 3-replicate tail,
// tasks crashing, fetches failing and a node lost with its cached blocks — are
// the same bits under Workers ∈ {1, 2, 8}, and the bits a fault-free cold
// Replicate(k) returns.
func TestBatchColumnsAreReplicatesUnderChaos(t *testing.T) {
	ds := testDataset(t, 61, 200, 9, 7)
	var columns [][]float64
	replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		a := stagedAnalysis(t, workersContext(t, workers, chaosProfile), ds, Options{Seed: 7})
		blocks, release, err := a.source(true)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		columns = nil
		if err := a.replicates(blocks, chaosIters, func(s []float64) { columns = append(columns, s) }); err != nil {
			t.Fatal(err)
		}
		var bits strings.Builder
		for _, s := range columns {
			for _, v := range s {
				fmt.Fprintf(&bits, "%016x ", math.Float64bits(v))
			}
		}
		return replaytest.Observation{Result: bits.String()}
	})
	clean := stagedAnalysis(t, workersContext(t, 0, rdd.FaultProfile{}), ds, Options{Seed: 7})
	for k, column := range columns {
		single, err := clean.Replicate(uint64(k + 1))
		if err != nil {
			t.Fatal(err)
		}
		for set := range single {
			if math.Float64bits(column[set]) != math.Float64bits(single[set]) {
				t.Fatalf("replicate %d set %d: %v in a batch under chaos, %v from a clean Replicate", k+1, set, column[set], single[set])
			}
		}
	}
}

// TestResamplingNeverRefitsTheNullModel pins "fitted once per Analysis": the
// covariates are not retained past NewAnalysis, and with the phenotype taken
// away as well nothing is left to fit a null model from — Warm, Observed, ten
// served replicates and a batched run still succeed (a task that tried would
// crash its job) and return the bits of an untouched analysis. The adjusted
// Cox model is a Newton–Raphson fit, the adjusted Binomial an IRLS one.
func TestResamplingNeverRefitsTheNullModel(t *testing.T) {
	for _, cfg := range batchConfigs(t) {
		if !strings.HasPrefix(cfg.name, "adjusted-") {
			continue
		}
		t.Run(cfg.name, func(t *testing.T) {
			run := func(poison bool) (out [][]float64) {
				a := stagedAnalysis(t, testContext(t, 2), cfg.ds, cfg.opts)
				if poison {
					a.phenotype = nil
				}
				if err := a.Warm(); err != nil {
					t.Fatal(err)
				}
				observed, err := a.Observed()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, observed)
				for k := uint64(1); k <= 10; k++ {
					s, err := a.Replicate(k)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
				res, err := a.MonteCarlo(mcBatch + 1)
				if err != nil {
					t.Fatal(err)
				}
				return append(out, res.Observed, res.PValues)
			}
			if got, want := fmt.Sprint(run(true)), fmt.Sprint(run(false)); got != want {
				t.Fatalf("without its phenotype the analysis returns\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestNewAnalysisRejectsNonFiniteResiduals covers the fail-closed check on
// the null model: leaving zero-dosage terms out of a score is exact only for
// finite residuals, so an analysis whose model has none is refused at
// construction, naming the patient.
func TestNewAnalysisRejectsNonFiniteResiduals(t *testing.T) {
	const patients = 40
	fixture := func() *data.Dataset {
		ds := testDataset(t, patients, 30, 3, 9)
		ds.Covariates = gen.Covariates(gen.Config{Patients: patients, SNPs: 30, SNPSets: 3}, rng.New(4))
		return ds
	}
	// A covariate that shortens survival, so its fitted log-hazard is
	// positive — and the earliest patient, censored, is in no event's risk
	// set: the fit never sees a value there that overflows exp.
	overflow := fixture()
	first := 0
	for i, y := range overflow.Phenotype.Y {
		overflow.Covariates.Rows[i][0] -= math.Log(y) / 2
		if y < overflow.Phenotype.Y[first] {
			first = i
		}
	}
	overflow.Phenotype.Event[first] = 0
	overflow.Covariates.Rows[first][0] = 1e4
	// A finite outcome too large for a replicate's headroom: the mean it
	// drags along leaves every residual out of range, patient 0's first.
	huge := fixture()
	huge.Covariates, huge.Phenotype.Y[3] = nil, 1e300
	gaussian, err := stats.NewModel("gaussian", huge.Phenotype)
	if err != nil {
		t.Fatal(err)
	}
	// A non-finite outcome never reaches the model: the reader refuses it.
	nan := fixture()
	nan.Phenotype.Y[3] = math.NaN()
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
		opts Options
		want string
	}{
		{"covariate overflows exp", overflow, Options{}, fmt.Sprintf("stats: cox risk weight +Inf for patient %d", first)},
		{"huge outcome", huge, Options{Family: "gaussian"}, fmt.Sprintf("stats: score residual %v for patient 0", gaussian.ScoreResiduals()[0])},
		{"NaN outcome", nan, Options{Family: "gaussian"}, `data: phenotype line 4: bad outcome "NaN"`},
	} {
		ctx := testContext(t, 1)
		paths, err := StageDataset(ctx, tc.ds, "test")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewAnalysis(ctx, paths, tc.opts); err == nil || err.Error() != tc.want {
			t.Errorf("%s: NewAnalysis = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestMonteCarloDataflowShape pins the dataflow as counters: 1 + ⌈B/b⌉ jobs of
// two stages — the fold straight over the cached packed genotype blocks and
// the reduce, no contribution stage, no weights stage and no join — the cached
// blocks read once per job however many replicates the job carries, and a
// shuffle of exactly one (16 + 8·width)-byte vector per (map partition, set
// touched).
func TestMonteCarloDataflowShape(t *testing.T) {
	ds := testDataset(t, 61, 200, 9, 21)
	var stages []string
	ctx := testContext(t, 3)
	ctx.AddListener(rdd.ListenerFunc(func(ev rdd.Event) {
		if e, ok := ev.(*rdd.StageSubmitted); ok {
			stages = append(stages, e.RDD)
		}
	}))
	a := stagedAnalysis(t, ctx, ds, Options{Seed: 7})
	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	cachedG := ctx.CachedBytes()

	// Sets touched per map partition, worked out from the partition's SNP ids
	// and the dataset's set lists rather than from the pipeline's own index.
	setsOf := map[int32][]int{}
	for k, set := range ds.SNPSets {
		for _, j := range set.SNPs {
			setsOf[int32(j)] = append(setsOf[int32(j)], k)
		}
	}
	perPart, err := rdd.Collect(rdd.FoldPartition(a.warm, "setsTouched", func(rdd.Task) (func(data.GenoBlock), func() []int64) {
		seen := map[int]bool{}
		add := func(b data.GenoBlock) {
			for _, snp := range b.SNPs {
				for _, k := range setsOf[snp] {
					seen[k] = true
				}
			}
		}
		return add, func() []int64 { return []int64{int64(len(seen))} }
	}))
	if err != nil {
		t.Fatal(err)
	}
	var touched int64
	for _, n := range perPart {
		touched += n
	}
	if parts := a.warm.Partitions(); parts < 2 || touched <= int64(len(ds.SNPSets)) {
		t.Fatalf("%d partitions touching %d sets in total: the fixture does not spread sets over partitions", parts, touched)
	}

	const tail = 3
	before := len(ctx.Jobs())
	stages = nil
	if _, err := a.MonteCarlo(2*mcBatch + tail); err != nil {
		t.Fatal(err)
	}
	jobs := ctx.Jobs()[before:]
	widths := []int64{1, mcBatch, mcBatch, tail} // the observed pass, then the batches
	if len(jobs) != len(widths) {
		t.Fatalf("MonteCarlo(%d) ran %d jobs, want %d", 2*mcBatch+tail, len(jobs), len(widths))
	}
	for i, m := range jobs {
		if m.Stages != 2 || m.Tasks != 2*a.warm.Partitions() {
			t.Errorf("job %d: %d stages, %d tasks, want 2 and %d", i, m.Stages, m.Tasks, 2*a.warm.Partitions())
		}
		if m.CacheReadBytes != cachedG {
			t.Errorf("job %d (%d replicates) read %d cached bytes, want the packed matrix once = %d", i, widths[i], m.CacheReadBytes, cachedG)
		}
		if want := touched * (16 + 8*widths[i]); m.ShuffleBytes != want {
			t.Errorf("job %d shuffled %d bytes, want %d (partition, set) vectors x (16 + 8x%d) B = %d",
				i, m.ShuffleBytes, touched, widths[i], want)
		}
	}
	// Without the cache every job — the observed pass and each batch — re-scans
	// the genotype text, once.
	text, err := ctx.FS().ReadAll(a.genoPath)
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	before = len(ctx.Jobs())
	uncached := *a
	uncached.opts.NoCache = true
	if _, err := uncached.MonteCarlo(mcBatch + tail); err != nil {
		t.Fatal(err)
	}
	for i, m := range ctx.Jobs()[before:] {
		if m.DFSBytes != int64(len(text)) || m.CacheReadBytes != 0 {
			t.Errorf("uncached job %d read %d DFS bytes and %d cached bytes, want the %d-byte text once and no cache", i, m.DFSBytes, m.CacheReadBytes, len(text))
		}
	}
	if n := len(ctx.Jobs()) - before; n != 3 {
		t.Fatalf("uncached MonteCarlo(%d) ran %d jobs, want 3", mcBatch+tail, n)
	}
	// The weights are a broadcast: no stage reads them and nothing is joined.
	for i, name := range stages {
		want := []string{"fold:setSums(flatMap:parsePackGenotypes(", "reduceByKey(fold:setSums(flatMap:parsePackGenotypes("}[i%2]
		if !strings.HasPrefix(name, want) || strings.Contains(name, "join(") || strings.Contains(name, "eights") {
			t.Errorf("stage %d is %q, want a %s…) stage over the genotype lineage alone", i, name, want)
		}
	}
}

// TestNewAnalysisValidatesWeights covers the weights file's failure modes at
// the one place they can now surface: construction, before any job runs.
func TestNewAnalysisValidatesWeights(t *testing.T) {
	ds := testDataset(t, 10, 12, 2, 4)
	if !slices.Contains(ds.SNPSets[1].SNPs, 11) { // listing it twice is an error of its own
		ds.SNPSets[1].SNPs = append(ds.SNPSets[1].SNPs, 11)
	}
	for _, tc := range []struct{ name, weights, want string }{
		{"set member beyond the file", "0\t1\n1\t1\n2\t1\n", `core: SNP-set "set`},
		{"last member missing", weightLines(11), `core: SNP-set "set1" contains SNP 11, but the weights file ends at SNP 10`},
		{"gap", "0\t1\n2\t1\n", "data: 2 weights but max SNP id is 2"},
		{"duplicate line", weightLines(12) + "3\t2\n", "data: duplicate weight for SNP 3"},
		{"malformed line", weightLines(12) + "12 0.5\n", "data: weight line 13: missing tab"},
		{"negative weight", weightLines(11) + "11\t-1\n", `data: weight line 12: bad weight "-1"`},
		{"NaN weight", weightLines(11) + "11\tNaN\n", `data: weight line 12: bad weight "NaN"`},
		{"infinite weight", weightLines(11) + "11\t+Inf\n", `data: weight line 12: bad weight "+Inf"`},
	} {
		ctx := testContext(t, 1)
		paths, err := StageDataset(ctx, ds, "test")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.FS().Write(paths.Weights, []byte(tc.weights)); err != nil {
			t.Fatal(err)
		}
		if _, err := NewAnalysis(ctx, paths, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewAnalysis = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSNPListedTwiceInASetIsAnInputError: a set that lists a SNP twice would
// add that SNP's term to its statistic twice. Staging refuses such a dataset
// (data.SNPSets.Validate), and NewAnalysis refuses a staged SNP-set file that
// lists one, naming the set and the SNP. A SNP in two sets stays legal.
func TestSNPListedTwiceInASetIsAnInputError(t *testing.T) {
	ds := testDataset(t, 10, 12, 2, 4)
	twice := *ds
	twice.SNPSets = data.SNPSets{{Name: "twice", SNPs: []int{3, 5, 3}}}
	if _, err := StageDataset(testContext(t, 1), &twice, "test"); err == nil ||
		err.Error() != `data: SNP-set 0 ("twice") lists SNP 3 twice` {
		t.Errorf("staging a set that lists SNP 3 twice: %v", err)
	}
	for _, tc := range []struct{ sets, want string }{
		{"shared\t3,5\ntwice\t4,3,5,3\n", `core: SNP-set "twice" lists SNP 3 twice`},
		{"a\t3\nb\t3,4\n", ""},
	} {
		ctx := testContext(t, 1)
		paths, err := StageDataset(ctx, ds, "test")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.FS().Write(paths.SNPSets, []byte(tc.sets)); err != nil {
			t.Fatal(err)
		}
		_, err = NewAnalysis(ctx, paths, Options{})
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("sets %q: NewAnalysis = %v, want %q", tc.sets, err, tc.want)
		}
	}
}

// weightLines renders unit weights for SNPs 0 … n−1.
func weightLines(n int) string {
	var sb strings.Builder
	for j := 0; j < n; j++ {
		fmt.Fprintf(&sb, "%d\t1\n", j)
	}
	return sb.String()
}
