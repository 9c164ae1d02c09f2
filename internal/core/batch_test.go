package core

import (
	"fmt"
	"strings"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
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
// covariate-adjusted Gaussian score.
func batchConfigs(t *testing.T) []batchConfig {
	cox := testDataset(t, 25, 120, 6, 31)
	adjusted := testDataset(t, 40, 120, 6, 32)
	adjusted.Covariates = gen.Covariates(gen.Config{Patients: 40, SNPs: 120, SNPSets: 6}, rng.New(3))
	return []batchConfig{
		{"cox/skat", cox, Options{Seed: 5}},
		{"cox/burden", cox, Options{Seed: 5, SetStatistic: "burden"}},
		{"adjusted-gaussian/skat", adjusted, Options{Seed: 6, Family: "gaussian"}},
		{"adjusted-gaussian/burden", adjusted, Options{Seed: 6, Family: "gaussian", SetStatistic: "burden"}},
	}
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
			{"uncached", Options.WithoutCache},
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
				rep, release, err := a.contributionSource(true)
				if err != nil {
					t.Fatal(err)
				}
				var batched [][]float64
				err = a.replicates(rep, iters, func(s []float64) { batched = append(batched, s) })
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

// TestMonteCarloDataflowShape pins the dataflow as counters: 1 + ⌈B/b⌉ jobs of
// two stages — the fold and the reduce, no weights stage and no join — the
// cached U read once per job however many replicates the job carries, and a
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
	cachedU := ctx.CachedBytes()

	// Sets touched per map partition, worked out from the partition's SNP ids
	// and the dataset's set lists rather than from the pipeline's own index.
	setsOf := map[int32][]int{}
	for k, set := range ds.SNPSets {
		for _, j := range set.SNPs {
			setsOf[int32(j)] = append(setsOf[int32(j)], k)
		}
	}
	perPart, err := rdd.Collect(rdd.MapPartitions(a.warmUB, "setsTouched", func(_ int, blocks []stats.UBlock) []int64 {
		seen := map[int]bool{}
		for _, b := range blocks {
			for _, snp := range b.SNPs {
				for _, k := range setsOf[snp] {
					seen[k] = true
				}
			}
		}
		return []int64{int64(len(seen))}
	}))
	if err != nil {
		t.Fatal(err)
	}
	var touched int64
	for _, n := range perPart {
		touched += n
	}
	if parts := a.warmUB.Partitions(); parts < 2 || touched <= int64(len(ds.SNPSets)) {
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
		if m.Stages != 2 || m.Tasks != 2*a.warmUB.Partitions() {
			t.Errorf("job %d: %d stages, %d tasks, want 2 and %d", i, m.Stages, m.Tasks, 2*a.warmUB.Partitions())
		}
		if m.CacheReadBytes != cachedU {
			t.Errorf("job %d (%d replicates) read %d cached bytes, want U once = %d", i, widths[i], m.CacheReadBytes, cachedU)
		}
		if want := touched * (16 + 8*widths[i]); m.ShuffleBytes != want {
			t.Errorf("job %d shuffled %d bytes, want %d (partition, set) vectors x (16 + 8x%d) B = %d",
				i, m.ShuffleBytes, touched, widths[i], want)
		}
	}
	// The weights are a broadcast: no stage reads them and nothing is joined.
	for i, name := range stages {
		want := []string{"fold:setSums(map:blockContributions(", "reduceByKey(fold:setSums("}[i%2]
		if !strings.HasPrefix(name, want) || strings.Contains(name, "join(") || strings.Contains(name, "eights") {
			t.Errorf("stage %d is %q, want a %s…) stage over the genotype lineage alone", i, name, want)
		}
	}
}

// TestNewAnalysisValidatesWeights covers the weights file's failure modes at
// the one place they can now surface: construction, before any job runs.
func TestNewAnalysisValidatesWeights(t *testing.T) {
	ds := testDataset(t, 10, 12, 2, 4)
	ds.SNPSets[1].SNPs = append(ds.SNPSets[1].SNPs, 11)
	for _, tc := range []struct{ name, weights, want string }{
		{"set member beyond the file", "0\t1\n1\t1\n2\t1\n", `core: SNP-set "set`},
		{"last member missing", weightLines(11), `core: SNP-set "set1" contains SNP 11, but the weights file ends at SNP 10`},
		{"gap", "0\t1\n2\t1\n", "data: 2 weights but max SNP id is 2"},
		{"duplicate line", weightLines(12) + "3\t2\n", "data: duplicate weight for SNP 3"},
		{"malformed line", weightLines(12) + "12 0.5\n", "data: weight line 13: missing tab"},
		{"negative weight", weightLines(11) + "11\t-1\n", `data: weight line 12: bad weight "-1"`},
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

// weightLines renders unit weights for SNPs 0 … n−1.
func weightLines(n int) string {
	var sb strings.Builder
	for j := 0; j < n; j++ {
		fmt.Fprintf(&sb, "%d\t1\n", j)
	}
	return sb.String()
}
