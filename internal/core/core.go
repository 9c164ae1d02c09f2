// Package core implements SparkScore: the paper's Algorithms 1 (observed
// SKAT statistics), 2 (permutation resampling), and 3 (Monte Carlo
// resampling with a cached score-contribution RDD), expressed against the
// rdd engine as the paper expresses them against Spark, with one
// substitution: the weights, like the phenotype, are small enough to
// broadcast, so the paper's weights join is a lookup inside the block task.
//
// The data flow of Algorithm 1, whose set-sum fold (foldSetSums) takes the
// marginal scores from either of two sources:
//
//	weights, SNP-sets ──driver──► broadcast (ω_j, SNP → sets) ────────┐
//	genotype file ──mapBatches──► RDD (packed genotype blocks)        │
//	              (rows outside every SNP-set dropped at the parse)   │
//	  source U — Lin's method needs the per-patient terms:            │
//	              ──map (broadcast phenotype)──►                      │
//	              RDD U (blocks of per-patient U_ij)                  │
//	              ──fold per partition: U·Z, ω_j, set sums──► (set, partial sums)
//	  source packed rows — a pass that only needs U_j = Σ_i G_ij r_i: │
//	              (driver fits the null model, broadcasts r)          │
//	              ──fold per partition: G·r, ω_j, set sums──► (set, partial sums)
//	              ──reduceByKey──► (set, S_k)
//
// Algorithm 2 re-runs the whole scan per iteration under a shuffled
// phenotype, always off the packed rows: no U is ever built for it.
// Algorithm 3 caches RDD U and only reweights it with standard-normal draws
// (Lin 2005), skipping the genotype parse and score recomputation entirely —
// mcBatch replicates per job, as the columns of a patients × b panel Z, so
// one pass over the cached U serves b replicates.
package core

import (
	"bytes"
	"fmt"
	"io"

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

	// Cache controls whether Monte Carlo caches RDD U (Algorithm 3 step 2).
	// The paper's Experiment B flips exactly this switch. Default true.
	Cache *bool

	// DiskSpill persists RDD U at MEMORY_AND_DISK instead of Spark's default
	// MEMORY_ONLY: partitions that overflow executor storage are demoted to
	// local disk rather than recomputed from the genotype file — the
	// configuration change that would have cured the paper's 6-node
	// strong-scaling collapse (Figure 6).
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

func (o Options) cache() bool { return o.Cache == nil || *o.Cache }

// CacheOff is a convenience for Options.Cache.
var cacheOff = false

// WithoutCache returns a copy of o with caching disabled.
func (o Options) WithoutCache() Options {
	o.Cache = &cacheOff
	return o
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

	phenotype  *data.Phenotype
	covariates [][]float64 // nil when unadjusted
	sets       data.SNPSets
	patients   int

	// index is the small side of the set aggregation — per-SNP weights and
	// SNP → sets membership — read once and broadcast to executors.
	index    *rdd.Broadcast[*setIndex]
	genoPath string
	setStat  stats.SetStatistic

	// warmUB, when non-nil, is a cached RDD U (stats.UBlock matrices) kept
	// alive across resampling calls (see Warm).
	warmUB *rdd.RDD[stats.UBlock]

	// warmFGMB, when non-nil, is the cached filtered genotype matrix (see
	// WarmGenotypes).
	warmFGMB *rdd.RDD[data.GenoBlock]
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
	if _, err := stats.NewAdjustedModel(opts.family(), ph, covariates); err != nil {
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
		ctx:        ctx,
		opts:       opts,
		phenotype:  ph,
		covariates: covariates,
		sets:       sets,
		patients:   ph.Patients(),
		index:      rdd.NewBroadcast(ctx, index, int64(len(weights))*32+int64(sets.TotalMembers())*4),
		genoPath:   paths.Genotypes,
		setStat:    setStat,
	}, nil
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
// the SNP silently or fail inside a task.
func newSetIndex(sets data.SNPSets, weights data.Weights) (*setIndex, error) {
	x := &setIndex{weights: weights, sets: make([][]int32, len(weights))}
	for k, set := range sets {
		for _, j := range set.SNPs {
			if j >= len(weights) {
				return nil, fmt.Errorf("core: SNP-set %q contains SNP %d, but the weights file ends at SNP %d",
					set.Name, j, len(weights)-1)
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

// filteredGenotypeBlocks builds RDD_FGM (Algorithm 1 steps 3–5): genotype
// lines parsed and 2-bit packed into data.GenoBlock columns at the source,
// restricted to SNPs appearing in some SNP-set. The membership filter runs on
// the SNP-id prefix alone, before any genotype field is decoded (predicate
// pushdown), and the pack fuses with the text scan — no per-row genotype
// slice ever materialises.
func (a *Analysis) filteredGenotypeBlocks() (*rdd.RDD[data.GenoBlock], error) {
	if a.warmFGMB != nil {
		return a.warmFGMB, nil
	}
	lines, err := a.ctx.TextFile(a.genoPath, 0)
	if err != nil {
		return nil, err
	}
	patients := a.patients
	index := a.index
	inSomeSet := func(snp int) bool { return len(index.Value().of(snp)) > 0 }
	blocks := rdd.MapBatches(lines, "parsePackGenotypes", data.GenoBlockRows, func(_ int, batch []string) data.GenoBlock {
		blk, err := data.ParseGenoBlock(batch, patients, inSomeSet)
		if err != nil {
			panic(err)
		}
		return blk
	})
	nonEmpty := rdd.Filter(blocks, "nonEmptyBlocks", func(b data.GenoBlock) bool {
		return b.Rows() > 0
	})
	fullBlock := int64(data.GenoBlockRows)*(int64(data.BlockRowBytes(patients))+8) + 96
	return nonEmpty.SetSizeHint(fullBlock).SetSizeFunc(data.GenoBlock.ApproxBytes), nil
}

// nullModel bundles what executors need to build the score model: the
// phenotype and, when adjusting, the covariate matrix.
type nullModel struct {
	Ph  *data.Phenotype
	Cov [][]float64
}

func (a *Analysis) broadcastNull(ph *data.Phenotype) *rdd.Broadcast[nullModel] {
	bytes := int64(ph.Patients()) * 17
	if a.covariates != nil && len(a.covariates) > 0 {
		bytes += int64(len(a.covariates)) * int64(len(a.covariates[0])) * 8
	}
	return rdd.NewBroadcast(a.ctx, nullModel{Ph: ph, Cov: a.covariates}, bytes)
}

// contributionBlocks builds RDD U for the given phenotype (Algorithm 1 step
// 7): each packed genotype block maps to a stats.UBlock through a blocked
// kernel that fuses the 2-bit dosage decode with the score accumulation. The
// phenotype (and covariates, when adjusting) is broadcast; the kernel is built
// once per partition and owns its decode scratch, so steady-state allocations
// per block stay flat regardless of the patient count.
func (a *Analysis) contributionBlocks(blocks *rdd.RDD[data.GenoBlock], ph *data.Phenotype) *rdd.RDD[stats.UBlock] {
	family := a.opts.family()
	bc := a.broadcastNull(ph)
	u := rdd.MapWithSetup(blocks, "blockContributions", func(int) func(data.GenoBlock) stats.UBlock {
		nm := bc.Value()
		model, err := stats.NewAdjustedModel(family, nm.Ph, nm.Cov)
		if err != nil {
			panic(err)
		}
		return stats.NewBlockKernel(model).Contributions
	})
	fullBlock := int64(data.GenoBlockRows)*(int64(a.patients)*8+4) + 96
	return u.SetSizeHint(fullBlock).SetSizeFunc(stats.UBlock.ApproxBytes)
}

// mcBatch is the number of Monte Carlo replicates one job scores: wide enough
// that the panel kernel is compute-bound rather than streaming U
// (BenchmarkUBlockPanel is flat from b = 16 on) and that per-job scheduling
// is noise, small enough that a task's sets × b partial sums stay cache-sized.
const mcBatch = 64

// setStats is Algorithm 1 steps 8–12 over RDD U, for the observed statistic
// (width 0) or for Monte Carlo replicates first … first+width−1 at once
// (Algorithm 3 step 4). Each task draws the replicates' weight panel and
// streams its partition's blocks through the U·Z panel product into the
// set-sum fold. The result is indexed [replicate][set].
//
// Summation-order contract: marginal scores are stats.UBlock.PanelScores'
// (bitwise the scalar loop's) and nothing depends on width, so replicate k is
// the same bits whichever batch carries it.
func (a *Analysis) setStats(u *rdd.RDD[stats.UBlock], first uint64, width int) ([][]float64, error) {
	seed, patients, mc := a.opts.Seed, a.patients, width > 0
	width = max(width, 1)
	return foldSetSums(a, u, width, func() blockScorer[stats.UBlock] {
		var z []float64
		if mc {
			z = drawPanel(seed, patients, first, width)
		}
		return func(b stats.UBlock, scores []float64) ([]int32, []float64) {
			return b.SNPs, b.PanelScores(z, width, scores)
		}
	})
}

// scoreStats is Algorithm 1 for a pass that needs the marginal scores and
// nothing else — the observed statistic, a permutation replicate — straight
// off the packed genotype rows. The marginal score is linear in the genotypes,
// U_j = Σ_i G_ij r_i (stats.ScoreResidualer), so the driver builds the null
// model for ph once and broadcasts r, 8 bytes a patient; tasks build no model
// and no U. Scores follow stats.PackedRowScores' summation order.
func (a *Analysis) scoreStats(ph *data.Phenotype) ([]float64, error) {
	model, err := stats.NewAdjustedModel(a.opts.family(), ph, a.covariates)
	if err != nil {
		return nil, err
	}
	sr, ok := model.(stats.ScoreResidualer)
	if !ok {
		return nil, fmt.Errorf("core: the %s score has no residual form", model.Name())
	}
	resid := rdd.NewBroadcast(a.ctx, sr.ScoreResiduals(), 8*int64(a.patients))
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	return onlyRow(foldSetSums(a, blocks, 1, func() blockScorer[data.GenoBlock] {
		r := resid.Value()
		return func(b data.GenoBlock, scores []float64) ([]int32, []float64) {
			return b.SNPs, stats.PackedRowScores(b, r, scores)
		}
	}))
}

// blockScorer turns one block of a set-sum source into its rows' SNP ids and
// marginal scores (rows × width, row-major), reusing scores' storage.
type blockScorer[B any] func(b B, scores []float64) (snps []int32, out []float64)

// foldSetSums is the body of Algorithm 1 steps 8–12 shared by both score
// sources. Each task builds its scorer once (setup), streams its partition's
// blocks through it, applies the weight and the set statistic's per-SNP term,
// and accumulates into a task-local sets × width matrix, emitting one vector
// per set it touched; a reduce sums the vectors per set. The result is indexed
// [column][set].
//
// Summation-order contract: a set's sum adds its rows in partition order
// within a map task, then the map outputs in partition order.
func foldSetSums[B any](a *Analysis, blocks *rdd.RDD[B], width int, setup func() blockScorer[B]) ([][]float64, error) {
	index, setStat, sets := a.index, a.setStat, len(a.sets)
	partials := rdd.FoldPartition(blocks, "setSums", func(int) (func(B), func() []rdd.KV[int, []float64]) {
		scoreBlock := setup()
		x := index.Value()
		sums, touched := make([]float64, sets*width), make([]bool, sets)
		var scores []float64
		add := func(b B) {
			var snps []int32
			snps, scores = scoreBlock(b, scores)
			for r, snp := range snps {
				w, rowScores := x.weights[snp], scores[r*width:][:width]
				for _, k := range x.of(int(snp)) {
					touched[k] = true
					acc := sums[int(k)*width:][:width]
					for c, score := range rowScores {
						acc[c] += setStat.PerSNP(w, score)
					}
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
// outputs, which a retried or speculative copy of the task reads again.
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
// on the batch, or the task, it is drawn in. Tasks draw their own panel: Z is
// a pure function of (seed, replicate), so a job ships two integers where a
// broadcast would put B × patients × 8 bytes through the driver over a run,
// and a task's redraw is patients × width normals against its rows × patients
// × width multiply-adds.
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

// repFunc computes one resampling job over a built RDD U: the set statistics
// of Monte Carlo replicates first … first+width−1, or the observed statistic
// for width 0 (see setStats).
type repFunc func(first uint64, width int) ([][]float64, error)

// contributionSource builds RDD U (or reuses the Warm()ed one) and returns
// the resampling pass over it. When cache is true and the RDD was built fresh
// it is persisted for the lifetime of the source; release drops it (and is a
// no-op otherwise).
func (a *Analysis) contributionSource(cache bool) (rep repFunc, release func(), err error) {
	release = func() {}
	u := a.warmUB
	if u == nil {
		blocks, err := a.filteredGenotypeBlocks()
		if err != nil {
			return nil, nil, err
		}
		u = a.contributionBlocks(blocks, a.phenotype)
		if cache {
			u.Persist(a.persistLevel())
			release = u.Unpersist
		}
	}
	return func(first uint64, width int) ([][]float64, error) { return a.setStats(u, first, width) }, release, nil
}

// onlyRow unwraps the result of a one-column pass.
func onlyRow(s [][]float64, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	return s[0], nil
}

// Observed computes the observed SKAT statistics S_k^0 (Algorithm 1): off the
// Warm()ed U when there is one, else straight off the packed genotype rows.
func (a *Analysis) Observed() ([]float64, error) {
	if a.warmUB != nil {
		return onlyRow(a.setStats(a.warmUB, 0, 0))
	}
	return a.scoreStats(a.phenotype)
}

// Permutation runs Algorithm 2: the observed statistic, then B full pipeline
// re-executions under random shufflings of the phenotype pairs. Every pass,
// the observed one included, is scoreStats — the ≥ tally compares replicates
// with the observed statistic, so both must come from the same kernel.
func (a *Analysis) Permutation(iterations int) (*Result, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: %d iterations", iterations)
	}
	if a.covariates != nil {
		// Shuffling the outcomes would break their link to the covariates as
		// well as to the genotypes; this is exactly why the paper prefers
		// Lin's Monte Carlo method when baseline covariates are present.
		return nil, fmt.Errorf("core: permutation resampling cannot adjust for baseline covariates; use MonteCarlo")
	}
	observed, err := a.scoreStats(a.phenotype)
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	root := rng.New(a.opts.Seed ^ 0x5ca1ab1e)
	for b := 1; b <= iterations; b++ {
		perm := root.Split(uint64(b)).Perm(a.patients)
		rep, err := a.scoreStats(a.phenotype.Permuted(perm))
		if err != nil {
			return nil, fmt.Errorf("core: permutation replicate %d: %w", b, err)
		}
		counter.Add(rep)
	}
	return newResult(a.sets, observed, counter), nil
}

// persistLevel maps the DiskSpill option to a storage level.
func (a *Analysis) persistLevel() rdd.StorageLevel {
	if a.opts.DiskSpill {
		return rdd.MemoryAndDisk
	}
	return rdd.MemoryOnly
}

// Warm materialises RDD U and keeps it cached across subsequent resampling
// calls — an interactive-session extension of Algorithm 3's caching step,
// useful when several Monte Carlo analyses run against the same data.
// Release drops it.
func (a *Analysis) Warm() error {
	if a.warmUB != nil {
		return nil
	}
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return err
	}
	u := a.contributionBlocks(blocks, a.phenotype).Persist(a.persistLevel())
	if _, err := rdd.Count(u); err != nil {
		u.Unpersist()
		return err
	}
	a.warmUB = u
	return nil
}

// Release drops the cached RDD U retained by Warm.
func (a *Analysis) Release() {
	if a.warmUB != nil {
		a.warmUB.Unpersist()
		a.warmUB = nil
	}
}

// WarmGenotypes materialises RDD_FGM — the packed, filtered genotype matrix —
// and keeps it cached; subsequent pipeline builds read the cached matrix
// instead of re-scanning the text file.
func (a *Analysis) WarmGenotypes() error {
	if a.warmFGMB != nil {
		return nil
	}
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return err
	}
	blocks.Persist(a.persistLevel())
	if _, err := rdd.Count(blocks); err != nil {
		blocks.Unpersist()
		return err
	}
	a.warmFGMB = blocks
	return nil
}

// ReleaseGenotypes drops the cached RDD_FGM retained by WarmGenotypes.
func (a *Analysis) ReleaseGenotypes() {
	if a.warmFGMB != nil {
		a.warmFGMB.Unpersist()
		a.warmFGMB = nil
	}
}

// MonteCarlo runs Algorithm 3: the observed statistic with RDD U cached,
// then B cheap reweightings Ũ_j = Σ_i Z_i U_ij with Z ~ N(0,1), mcBatch
// replicates per job.
func (a *Analysis) MonteCarlo(iterations int) (*Result, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: %d iterations", iterations)
	}
	rep, release, err := a.contributionSource(a.opts.cache())
	if err != nil {
		return nil, err
	}
	defer release()
	observed, err := onlyRow(rep(0, 0))
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	if err := a.replicates(rep, iterations, counter.Add); err != nil {
		return nil, err
	}
	return newResult(a.sets, observed, counter), nil
}

// replicates runs Monte Carlo replicates 1 … iterations over rep, mcBatch per
// job, handing each replicate's set statistics to visit in replicate order.
func (a *Analysis) replicates(rep repFunc, iterations int, visit func([]float64)) error {
	for first := 1; first <= iterations; first += mcBatch {
		width := min(mcBatch, iterations-first+1)
		batch, err := rep(uint64(first), width)
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
// bit the b-th replicate MonteCarlo(B) tallies for b ≤ B. Against a Warm()ed
// analysis it is a single cached-read job, cheap enough to serve interactively.
func (a *Analysis) Replicate(replicate uint64) ([]float64, error) {
	rep, release, err := a.contributionSource(false)
	if err != nil {
		return nil, err
	}
	defer release()
	return onlyRow(rep(replicate, 1))
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

// MarginalAsymptotic computes per-SNP asymptotic score tests: each packed
// block decodes row by row into the kernel's scratch buffer and evaluates the
// score and variance terms of the broadcast null model.
func (a *Analysis) MarginalAsymptotic() ([]MarginalResult, error) {
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	family := a.opts.family()
	bc := a.broadcastNull(a.phenotype)
	perBlock := rdd.MapWithSetup(blocks, "asymptoticBlocks", func(int) func(data.GenoBlock) []MarginalResult {
		nm := bc.Value()
		model, err := stats.NewAdjustedModel(family, nm.Ph, nm.Cov)
		if err != nil {
			panic(err)
		}
		k := stats.NewBlockKernel(model)
		return func(b data.GenoBlock) []MarginalResult {
			out := make([]MarginalResult, b.Rows())
			for r := range out {
				out[r] = marginalResult(model, int(b.SNPs[r]), k.Decode(b, r))
			}
			return out
		}
	}).SetSizeHint(int64(data.GenoBlockRows)*40 + 24)
	perSNP := rdd.FlatMap(perBlock, "asymptotic", func(rs []MarginalResult) []MarginalResult {
		return rs
	}).SetSizeHint(40)
	return rdd.Collect(perSNP)
}

func marginalResult(model stats.Model, snp int, g []data.Genotype) MarginalResult {
	score := stats.Score(model, g)
	variance := model.Variance(g)
	return MarginalResult{
		SNP:      snp,
		Score:    score,
		Variance: variance,
		PValue:   stats.ChiSquaredSurvival(stats.Chi2Stat(score, variance), 1),
	}
}
