// Package core implements SparkScore: the paper's Algorithms 1 (observed
// SKAT statistics), 2 (permutation resampling), and 3 (Monte Carlo
// resampling over a cached RDD), expressed against the rdd engine as the
// paper expresses them against Spark, with two substitutions. The weights,
// like the phenotype, are small enough to broadcast, so the paper's weights
// join is a lookup inside the block task. And no pass stores the per-patient
// contributions U_ij: every marginal score it needs is linear in the
// genotypes, U_j = Σ_i G_ij r_i for the null model's score residuals r, so
// the driver fits the model once and tasks multiply packed genotype blocks by
// residuals.
//
// The data flow of every pass, whose set-sum fold (foldSetSums) differs only
// in the residuals it multiplies by:
//
//	weights, SNP-sets ──driver──► broadcast (ω_j, SNP → sets) ────────┐
//	phenotype, covariates ──driver──► null model, broadcast ──────────┤
//	genotype file ──flatMap─────► RDD (packed genotype blocks)        │
//	              (rows outside every SNP-set dropped at the parse)   │
//	              ──fold per partition: G·r or G·R̃(Z), ω_j, set sums──► (set, partial sums)
//	              ──reduceByKey──► (set, S_k)
//
// Algorithm 2 re-runs the whole scan per iteration under a shuffled
// phenotype (a new r per pass). Algorithm 3 caches the packed blocks — 2 bits
// per (SNP, patient) where the paper's RDD U holds 8 bytes — and reweights
// with standard-normal draws (Lin 2005): Σ_i Z_i U_ij = Σ_l G_lj r̃_l(Z)
// (stats.Model.PanelResiduals), mcBatch replicates per job as the
// columns of a patients × b panel R̃, so one parse-free pass over the cached
// blocks serves b replicates.
package core

import (
	"bytes"
	"fmt"
	"io"
	"iter"
	"sort"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// Paths names the four HDFS input files of Algorithm 1, plus an optional
// covariates file for adjusted analyses ("" = unadjusted).
type Paths struct {
	Genotypes  string
	Phenotype  string
	Weights    string
	SNPSets    string
	Covariates string
}

// Options tunes an analysis.
type Options struct {
	// Family selects the score statistic: "cox" (default), "gaussian", or
	// "binomial".
	Family string

	// SetStatistic selects how marginal scores aggregate into set-level
	// statistics: "skat" (default, the paper's statistic) or "burden".
	SetStatistic string

	// NoCache stops Monte Carlo caching the packed genotype blocks it
	// resamples over (Algorithm 3 step 2, with the blocks in RDD U's place),
	// so every job re-scans the genotype text. The paper's Experiment B flips
	// exactly this switch.
	NoCache bool

	// DiskSpill persists the cached blocks at MEMORY_AND_DISK instead of
	// Spark's default MEMORY_ONLY: partitions that overflow executor storage
	// are demoted to local disk rather than recomputed from the genotype file
	// — the configuration change that cures a strong-scaling collapse like the
	// paper's Figure 6 at six nodes.
	DiskSpill bool

	// Seed drives the resampling draws; a fixed seed reproduces p-values.
	Seed uint64
}

func (o Options) family() string {
	if o.Family == "" {
		return "cox"
	}
	return o.Family
}

// Result holds the outcome of a resampling analysis.
type Result struct {
	Sets       data.SNPSets
	Observed   []float64 // S_k^0 per set
	Exceed     []int     // counter_k: replicates with S_k^b >= S_k^0
	Iterations int
	PValues    []float64 // (counter_k+1)/(B+1)
}

// Analysis binds a driver context to staged input files and exposes the
// three algorithms.
type Analysis struct {
	ctx  *rdd.Context
	opts Options

	phenotype *data.Phenotype
	adjusted  bool // the null model adjusts for baseline covariates
	sets      data.SNPSets
	patients  int

	// index is the small side of the set aggregation — per-SNP weights and
	// SNP → sets membership — read once and broadcast to executors.
	index    *rdd.Broadcast[*setIndex]
	genoPath string
	setStat  stats.SetStatistic

	// null is the score model of the observed phenotype (and covariates),
	// fitted once on the driver and broadcast: tasks never refit it.
	null *rdd.Broadcast[stats.Model]

	// warm, when non-nil, is the cached filtered genotype matrix kept alive
	// across calls (see Warm).
	warm *rdd.RDD[data.GenoBlock]
}

// NewAnalysis reads the small inputs (phenotype, SNP-sets, weights) onto the
// driver, checks that every SNP-set member has a weight, and validates the
// score family. The genotype matrix itself stays on the DFS and is only
// streamed through tasks.
func NewAnalysis(ctx *rdd.Context, paths Paths, opts Options) (*Analysis, error) {
	ph, err := readInput(ctx, paths.Phenotype, data.ReadPhenotype)
	if err != nil {
		return nil, err
	}
	sets, err := readInput(ctx, paths.SNPSets, data.ReadSNPSets)
	if err != nil {
		return nil, err
	}
	weights, err := readInput(ctx, paths.Weights, data.ReadWeights)
	if err != nil {
		return nil, err
	}
	index, err := newSetIndex(sets, weights)
	if err != nil {
		return nil, err
	}
	var covariates [][]float64
	if paths.Covariates != "" {
		cov, err := readInput(ctx, paths.Covariates, data.ReadCovariates)
		if err != nil {
			return nil, err
		}
		if cov.Patients() != ph.Patients() {
			return nil, fmt.Errorf("core: covariates for %d patients, phenotype has %d",
				cov.Patients(), ph.Patients())
		}
		covariates = cov.Rows
	}
	// Fail fast on an unusable family, covariates, or set statistic before
	// any job runs.
	null, err := scoreModel(opts.family(), ph, covariates)
	if err != nil {
		return nil, err
	}
	setStat, err := stats.NewSetStatistic(opts.SetStatistic)
	if err != nil {
		return nil, err
	}
	if !ctx.FS().Exists(paths.Genotypes) {
		return nil, fmt.Errorf("core: genotype file %q not staged", paths.Genotypes)
	}
	return &Analysis{
		ctx:       ctx,
		opts:      opts,
		phenotype: ph,
		adjusted:  covariates != nil,
		sets:      sets,
		patients:  ph.Patients(),
		index:     rdd.NewBroadcast(ctx, index, int64(len(weights))*32+int64(sets.TotalMembers())*4),
		genoPath:  paths.Genotypes,
		setStat:   setStat,
		// Cox, the largest: five 8-byte vectors beside the phenotype's 9 bytes.
		null: rdd.NewBroadcast(ctx, null, 49*int64(ph.Patients())),
	}, nil
}

// scoreModel fits the null model of a phenotype in the residual form the
// packed kernels multiply by, refusing residuals they cannot score exactly.
func scoreModel(family string, ph *data.Phenotype, covariates [][]float64) (stats.Model, error) {
	model, err := stats.NewAdjustedModel(family, ph, covariates)
	if err != nil {
		return nil, err
	}
	return model, stats.CheckResiduals(model)
}

// readInput reads one of the small driver-side input files whole and parses it.
func readInput[T any](ctx *rdd.Context, path string, parse func(io.Reader) (T, error)) (T, error) {
	raw, err := ctx.FS().ReadAll(path)
	if err != nil {
		var zero T
		return zero, err
	}
	return parse(bytes.NewReader(raw))
}

// setIndex is what a block task needs besides U to turn marginal scores into
// set sums, both dense by SNP id: the weight ω_j and the indices of the sets
// containing SNP j (in SNP-set file order).
type setIndex struct {
	weights data.Weights
	sets    [][]int32
}

// newSetIndex inverts the SNP-sets over the weight file's id range. A set
// member without a weight is an input error: the analysis could only drop
// the SNP silently or fail inside a task. So is a SNP listed twice in one
// set, whose term the set statistic would add twice.
func newSetIndex(sets data.SNPSets, weights data.Weights) (*setIndex, error) {
	x := &setIndex{weights: weights, sets: make([][]int32, len(weights))}
	for k, set := range sets {
		for _, j := range set.SNPs {
			if j >= len(weights) {
				return nil, fmt.Errorf("core: SNP-set %q contains SNP %d, but the weights file ends at SNP %d",
					set.Name, j, len(weights)-1)
			}
			if in := x.sets[j]; len(in) > 0 && in[len(in)-1] == int32(k) {
				return nil, fmt.Errorf("core: SNP-set %q lists SNP %d twice", set.Name, j)
			}
			x.sets[j] = append(x.sets[j], int32(k))
		}
	}
	return x, nil
}

// of returns the indices of the sets containing snp; none for an id beyond
// the weight file (a genotype row no set can name).
func (x *setIndex) of(snp int) []int32 {
	if snp >= len(x.sets) {
		return nil
	}
	return x.sets[snp]
}

// Sets returns the SNP-sets of the analysis.
func (a *Analysis) Sets() data.SNPSets { return a.sets }

// Patients returns the cohort size.
func (a *Analysis) Patients() int { return a.patients }

// filteredGenotypeBlocks builds RDD_FGM (Algorithm 1 steps 3–5): the
// genotype blocks of the SNPs appearing in some SNP-set. The membership
// filter runs on the SNP-id prefix alone, before any genotype field is
// decoded (predicate pushdown).
func (a *Analysis) filteredGenotypeBlocks() (*rdd.RDD[data.GenoBlock], error) {
	if a.warm != nil {
		return a.warm, nil
	}
	index := a.index
	inSomeSet := func(snp int) bool { return len(index.Value().of(snp)) > 0 }
	return GenotypeBlocks(a.ctx, a.genoPath, a.patients, inSomeSet)
}

// GenotypeBlocks reads the genotype text at path as 2-bit packed
// data.GenoBlock columns of the SNPs keep accepts (nil keeps all), one
// partition per DFS block. The pack fuses with the text scan:
// data.ParseGenoText finds each line's end as it packs the line, streaming
// one block at a time, so the text is read once and no per-row genotype slice
// ever materialises. It is the one genotype source of both analyses.
func GenotypeBlocks(ctx *rdd.Context, path string, patients int, keep func(snp int) bool) (*rdd.RDD[data.GenoBlock], error) {
	splits, err := ctx.TextSplits(path, 0)
	if err != nil {
		return nil, err
	}
	blocks := rdd.FlatMap(splits, "parsePackGenotypes", func(text []byte) iter.Seq[data.GenoBlock] {
		return func(yield func(data.GenoBlock) bool) {
			if err := data.ParseGenoText(text, patients, keep, yield); err != nil {
				panic(err)
			}
		}
	})
	fullBlock := int64(data.GenoBlockRows)*(int64(data.BlockRowBytes(patients))+8) + 96
	return blocks.SetSizeHint(fullBlock).SetSizeFunc(data.GenoBlock.ApproxBytes), nil
}

// mcBatch is the number of Monte Carlo replicates one job scores: wide enough
// that the panel kernel's per-block cell lists are amortised over many tiles,
// walked two at a time, and per-job scheduling is noise (BenchmarkPackedPanel,
// the kernel built once and shared by every pass, on a 2-vCPU VM with
// AVX-512F: 0.055–0.060 ns per genotype-replicate at b = 64, 0.10–0.15 at
// b = 8, 0.15–0.24 at b = 1), small enough that the class table and a task's
// sets × b partial sums stay cache-sized.
const mcBatch = 64

// panelStats is Algorithm 3 step 4 for Monte Carlo replicates first …
// first+width−1 at once, indexed [replicate][set]. The driver draws the
// replicates' weight panel, turns it into the residual panel R̃ of the null
// model and builds its kernel once; every set-sum task scores through it.
//
// Summation-order contract: marginal scores are stats.PanelKernel's — column
// k is bitwise stats.PackedRowScores on r̃_k, the order scoreStats sums r in —
// and nothing depends on width, so replicate k is the same bits whichever
// batch carries it.
func (a *Analysis) panelStats(blocks *rdd.RDD[data.GenoBlock], first uint64, width int) ([][]float64, error) {
	z := drawPanel(a.opts.Seed, a.patients, first, width)
	return foldSetSums(a, blocks, width, stats.NewPanelKernel(a.patients, width, a.null.Value().PanelResiduals(z, width)))
}

// scoreStats is Algorithm 1 for the marginal scores of one residual vector —
// the null model's for the observed statistic, a shuffled phenotype's for a
// permutation replicate — straight off the packed genotype rows:
// U_j = Σ_i G_ij r_i (stats.Model.ScoreResiduals). The driver broadcasts r,
// 8 bytes a patient; tasks build no model. Scores follow stats.PackedRowScores'
// summation order: it is the one-column panel kernel.
func (a *Analysis) scoreStats(blocks *rdd.RDD[data.GenoBlock], r []float64) ([]float64, error) {
	bc := rdd.NewBroadcast(a.ctx, r, 8*int64(a.patients))
	s, err := foldSetSums(a, blocks, 1, stats.NewPanelKernel(a.patients, 1, bc.Value()))
	if err != nil {
		return nil, err
	}
	return s[0], nil
}

// foldSetSums is the body of Algorithm 1 steps 8–12 shared by every pass.
// Each task streams its partition's blocks through the pass's kernel of its
// patients × width residual panel (one kernel, shared by every task), adds
// each row's weighted per-SNP terms into the task-local sets × width matrix
// with one SetStatistic.AddPerSNP call per (row, set), and emits one vector
// per set it touched; a reduce sums the vectors per set. The result is indexed
// [column][set].
//
// Summation-order contract: a set's sum adds its rows in partition order
// within a map task, then the map outputs in partition order.
//
// Clock: a block charges rows × patients × width operations, one per genotype
// per residual column — the unit rdd's kernelGops was calibrated in.
func foldSetSums(a *Analysis, blocks *rdd.RDD[data.GenoBlock], width int, kernel *stats.PanelKernel) ([][]float64, error) {
	index, setStat, sets, patients := a.index, a.setStat, len(a.sets), a.patients
	partials := rdd.FoldPartition(blocks, "setSums", func(t rdd.Task) (func(data.GenoBlock), func() []rdd.KV[int, []float64]) {
		x := index.Value()
		sums, touched := make([]float64, sets*width), make([]bool, sets)
		var scores []float64
		add := func(b data.GenoBlock) {
			t.Charge(int64(b.Rows()) * int64(patients) * int64(width))
			scores = kernel.Scores(b, scores)
			for r, snp := range b.SNPs {
				w, rowScores := x.weights[snp], scores[r*width:][:width]
				for _, k := range x.of(int(snp)) {
					touched[k] = true
					setStat.AddPerSNP(sums[int(k)*width:][:width], w, rowScores)
				}
			}
		}
		finish := func() []rdd.KV[int, []float64] {
			var out []rdd.KV[int, []float64]
			for k, ok := range touched {
				if ok {
					out = append(out, rdd.KV[int, []float64]{K: k, V: sums[k*width:][:width:width]})
				}
			}
			return out
		}
		return add, finish
	}).SetSizeHint(16 + 8*int64(width))

	sums, err := rdd.CollectAsMap(rdd.ReduceByKey(partials, addVectors, 0))
	if err != nil {
		return nil, err
	}
	out := make([][]float64, width)
	for c := range out {
		out[c] = make([]float64, sets)
		for k := range out[c] {
			if v := sums[k]; v != nil { // else no SNP of the set has a genotype row: the sum is zero
				out[c][k] = v[c]
			}
			out[c][k] = setStat.Finalize(out[c][k])
		}
	}
	return out, nil
}

// addVectors is the set-sum reduce's combiner. It allocates instead of adding
// in place: the vectors a reduce task folds still belong to resident map
// outputs, which a retried attempt of the task reads again.
func addVectors(x, y []float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		out[i] = x[i] + y[i]
	}
	return out
}

// drawPanel draws the Monte Carlo weights of replicates first … first+width−1
// as a patients × width panel, patient-major. Replicate k's column comes from
// the seed stream's k-th split in patient order, so its weights do not depend
// on the batch it is drawn in. The cost model still has each task derive its
// panel from (seed, replicate) — a job ships two integers where a broadcast
// would put B × patients × 8 bytes through the driver over a run — and never
// charged that derivation; the host does it once per job, on the driver, and
// the tasks share the kernel built from it.
func drawPanel(seed uint64, patients int, first uint64, width int) []float64 {
	root := rng.New(seed ^ 0xcafe)
	z := make([]float64, patients*width)
	for c := 0; c < width; c++ {
		r := root.Split(first + uint64(c))
		for i := 0; i < patients; i++ {
			z[i*width+c] = r.Normal()
		}
	}
	return z
}

// source returns the packed genotype blocks a run of passes folds over: the
// Warm()ed matrix, else a fresh scan of the text, persisted when cache is set
// (the first pass fills the cache as it scans) until release.
func (a *Analysis) source(cache bool) (blocks *rdd.RDD[data.GenoBlock], release func(), err error) {
	release = func() {}
	if blocks, err = a.filteredGenotypeBlocks(); err == nil && cache && a.warm == nil {
		level := rdd.MemoryOnly
		if a.opts.DiskSpill {
			level = rdd.MemoryAndDisk
		}
		blocks.Persist(level)
		release = blocks.Unpersist
	}
	return blocks, release, err
}

// Observed computes the observed SKAT statistics S_k^0 (Algorithm 1).
func (a *Analysis) Observed() ([]float64, error) {
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	return a.scoreStats(blocks, a.null.Value().ScoreResiduals())
}

// Permutation runs Algorithm 2: the observed statistic, then B full pipeline
// re-executions under random shufflings of the phenotype pairs, the null model
// rebuilt on the driver for each. Every pass, the observed one included, is
// scoreStats — the ≥ tally compares replicates with the observed statistic,
// so both must come from the same kernel.
func (a *Analysis) Permutation(iterations int) (*Result, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: %d iterations", iterations)
	}
	if a.adjusted {
		// Shuffling the outcomes would break their link to the covariates as
		// well as to the genotypes; this is exactly why the paper prefers
		// Lin's Monte Carlo method when baseline covariates are present.
		return nil, fmt.Errorf("core: permutation resampling cannot adjust for baseline covariates; use MonteCarlo")
	}
	observed, err := a.Observed()
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	root := rng.New(a.opts.Seed ^ 0x5ca1ab1e)
	for b := 1; b <= iterations; b++ {
		perm := root.Split(uint64(b)).Perm(a.patients)
		rep, err := a.permuted(perm)
		if err != nil {
			return nil, fmt.Errorf("core: permutation replicate %d: %w", b, err)
		}
		counter.Add(rep)
	}
	return newResult(a.sets, observed, counter), nil
}

// permuted is one permutation replicate: Algorithm 1 re-run from the text
// under the phenotype shuffled by perm.
func (a *Analysis) permuted(perm []int) ([]float64, error) {
	model, err := scoreModel(a.opts.family(), a.phenotype.Permuted(perm), nil)
	if err != nil {
		return nil, err
	}
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	return a.scoreStats(blocks, model.ScoreResiduals())
}

// Warm materialises RDD_FGM — the packed, filtered genotype matrix — and
// keeps it cached across subsequent calls, which read it instead of
// re-scanning the text: an interactive-session extension of Algorithm 3's
// caching step, useful when several analyses run against the same data. The
// matrix stays cached for the life of the Analysis.
func (a *Analysis) Warm() error {
	if a.warm != nil {
		return nil
	}
	blocks, release, err := a.source(true)
	if err != nil {
		return err
	}
	if _, err := rdd.Count(blocks); err != nil {
		release()
		return err
	}
	a.warm = blocks
	return nil
}

// MonteCarlo runs Algorithm 3: the observed statistic with the packed blocks
// cached, then B cheap reweightings Ũ_j = Σ_i Z_i U_ij = Σ_l G_lj r̃_l(Z) with
// Z ~ N(0,1), mcBatch replicates per job.
func (a *Analysis) MonteCarlo(iterations int) (*Result, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: %d iterations", iterations)
	}
	blocks, release, err := a.source(!a.opts.NoCache)
	if err != nil {
		return nil, err
	}
	defer release()
	observed, err := a.scoreStats(blocks, a.null.Value().ScoreResiduals())
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	if err := a.replicates(blocks, iterations, counter.Add); err != nil {
		return nil, err
	}
	return newResult(a.sets, observed, counter), nil
}

// replicates runs Monte Carlo replicates 1 … iterations over blocks, mcBatch
// per job, handing each replicate's set statistics to visit in replicate
// order.
func (a *Analysis) replicates(blocks *rdd.RDD[data.GenoBlock], iterations int, visit func([]float64)) error {
	for first := 1; first <= iterations; first += mcBatch {
		width := min(mcBatch, iterations-first+1)
		batch, err := a.panelStats(blocks, uint64(first), width)
		if err != nil {
			return fmt.Errorf("core: Monte Carlo replicates %d-%d: %w", first, first+width-1, err)
		}
		for _, s := range batch {
			visit(s)
		}
	}
	return nil
}

// Replicate computes one Monte Carlo reweighting Ũ = Σ_i Z_i U_i with
// Z ~ N(0,1) drawn from the replicate's split of the analysis seed stream —
// the unit of interactive resampling the job server exposes. It is the
// one-column case of the job MonteCarlo batches, so Replicate(b) is bit for
// bit the b-th replicate MonteCarlo(B) tallies; against a Warm()ed analysis
// it is a single cached-read job.
func (a *Analysis) Replicate(replicate uint64) ([]float64, error) {
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	batch, err := a.panelStats(blocks, replicate, 1)
	if err != nil {
		return nil, err
	}
	return batch[0], nil
}

// newResult assembles a resampling outcome from the tallied counter.
func newResult(sets data.SNPSets, observed []float64, counter *stats.Counter) *Result {
	res := &Result{
		Sets:       sets,
		Observed:   observed,
		Exceed:     counter.Exceedances(),
		Iterations: counter.Replicates(),
	}
	if counter.Replicates() > 0 {
		res.PValues = counter.PValues()
	}
	return res
}

// MarginalResult is one SNP of the variant-by-variant asymptotic analysis:
// the score U_j, its null variance, and the 1-df chi-squared p-value — the
// large-sample alternative to resampling.
type MarginalResult struct {
	SNP      int
	Score    float64
	Variance float64
	PValue   float64
}

// RankMarginal orders results by p-value, ties by SNP index: the order
// sparkscore -marginal prints and /v1/score serves.
func RankMarginal(results []MarginalResult) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].PValue != results[j].PValue {
			return results[i].PValue < results[j].PValue
		}
		return results[i].SNP < results[j].SNP
	})
}

// MarginalAsymptotic computes per-SNP asymptotic score tests: each packed
// block is scored by stats.PackedRowScores against the broadcast null model's
// score residuals — the bits every resampling pass computes for the row — and
// each row's variance is BlockKernel.Variance: the row decoded into the
// kernel's scratch, since Cox's variance couples patients through the risk
// sets, and Cox's prefix sums in the kernel's scratch too. On the clock, two
// operations a genotype.
func (a *Analysis) MarginalAsymptotic() ([]MarginalResult, error) {
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	null, patients := a.null, a.patients
	perSNP := rdd.FoldPartition(blocks, "asymptoticBlocks", func(t rdd.Task) (func(data.GenoBlock), func() []MarginalResult) {
		model := null.Value()
		r, k := model.ScoreResiduals(), stats.NewBlockKernel(model)
		var scores []float64
		var out []MarginalResult
		add := func(b data.GenoBlock) {
			t.Charge(2 * int64(b.Rows()) * int64(patients))
			scores = stats.PackedRowScores(b, r, scores)
			for row, score := range scores {
				variance := k.Variance(b, row)
				out = append(out, MarginalResult{SNP: int(b.SNPs[row]), Score: score, Variance: variance,
					PValue: stats.ChiSquaredSurvival(stats.Chi2Stat(score, variance), 1)})
			}
		}
		return add, func() []MarginalResult { return out }
	}).SetSizeHint(40)
	return rdd.Collect(perSNP)
}
