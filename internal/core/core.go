// Package core implements SparkScore: the paper's Algorithms 1 (observed
// SKAT statistics), 2 (permutation resampling), and 3 (Monte Carlo
// resampling with a cached score-contribution RDD), expressed against the
// rdd engine exactly as the paper expresses them against Spark.
//
// The data flow of Algorithm 1:
//
//	weights file  ──map──►  RDD (snp, ω²)            ─┐
//	genotype file ──map──►  RDD (snp, genotypes)      │
//	              ──filter by union of SNP-sets──►    │
//	              ──map (broadcast phenotype)──►      │
//	              RDD U (snp, per-patient U_ij)       │
//	              ──map──►  RDD (snp, U_j²)          ─┴─join──► (snp, ω²·U_j²)
//	              ──flatMap set membership / reduceByKey──► (set, S_k)
//
// Algorithm 2 re-runs the whole pipeline per iteration under a shuffled
// phenotype; Algorithm 3 caches RDD U and per iteration only reweights it
// with standard-normal draws (Lin 2005), skipping the genotype parse and
// score recomputation entirely.
package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"

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

	// membership maps each SNP to the indices of the sets containing it,
	// broadcast to executors for the SKAT aggregation.
	membership *rdd.Broadcast[map[int][]int]

	weightsRDD  *rdd.RDD[rdd.KV[int, float64]] // (snp, ω_j)
	weightsPath string
	weightsMu   sync.Mutex   // guards weightsVec (lazily loaded, analyses may be served concurrently)
	weightsVec  data.Weights // lazily loaded driver-side copy
	genoPath    string
	setStat     stats.SetStatistic

	// warmUB, when non-nil, is a cached RDD U (stats.UBlock matrices) kept
	// alive across resampling calls (see Warm).
	warmUB *rdd.RDD[stats.UBlock]

	// warmFGMB, when non-nil, is the cached filtered genotype matrix (see
	// WarmGenotypes).
	warmFGMB *rdd.RDD[data.GenoBlock]
}

// NewAnalysis reads the small inputs (phenotype, SNP-sets) onto the driver,
// sets up the weight RDD, and validates the score family. The genotype
// matrix itself stays on the DFS and is only streamed through tasks.
func NewAnalysis(ctx *rdd.Context, paths Paths, opts Options) (*Analysis, error) {
	phRaw, err := ctx.FS().ReadAll(paths.Phenotype)
	if err != nil {
		return nil, err
	}
	ph, err := data.ReadPhenotype(bytes.NewReader(phRaw))
	if err != nil {
		return nil, err
	}
	setsRaw, err := ctx.FS().ReadAll(paths.SNPSets)
	if err != nil {
		return nil, err
	}
	sets, err := data.ReadSNPSets(bytes.NewReader(setsRaw))
	if err != nil {
		return nil, err
	}
	var covariates [][]float64
	if paths.Covariates != "" {
		covRaw, err := ctx.FS().ReadAll(paths.Covariates)
		if err != nil {
			return nil, err
		}
		cov, err := data.ReadCovariates(bytes.NewReader(covRaw))
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

	member := map[int][]int{}
	for k, set := range sets {
		for _, j := range set.SNPs {
			member[j] = append(member[j], k)
		}
	}

	weightLines, err := ctx.TextFile(paths.Weights, 0)
	if err != nil {
		return nil, err
	}
	// RDD_Weights is built once per analysis (Algorithm 1 step 2) and reused
	// by the join of every resampling replicate; cache it so iterations do
	// not re-ingest the weight file.
	weightsRDD := rdd.Map(weightLines, "parseWeights", func(line string) rdd.KV[int, float64] {
		snp, w, err := parseWeightLine(line)
		if err != nil {
			panic(err)
		}
		return rdd.KV[int, float64]{K: snp, V: w}
	}).SetSizeHint(16).Cache()

	a := &Analysis{
		ctx:         ctx,
		opts:        opts,
		phenotype:   ph,
		covariates:  covariates,
		sets:        sets,
		patients:    ph.Patients(),
		membership:  rdd.NewBroadcast(ctx, member, int64(sets.TotalMembers())*16),
		weightsRDD:  weightsRDD,
		weightsPath: paths.Weights,
		genoPath:    paths.Genotypes,
		setStat:     setStat,
	}
	return a, nil
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
	member := a.membership
	blocks := rdd.MapBatches(lines, "parsePackGenotypes", data.GenoBlockRows, func(_ int, batch []string) data.GenoBlock {
		blk := data.NewGenoBlock(patients, len(batch))
		for _, line := range batch {
			snp, rest, err := data.ParseSNPPrefix(line)
			if err != nil {
				panic(err)
			}
			if _, ok := member.Value()[snp]; !ok {
				continue
			}
			if err := blk.AppendTextRow(snp, rest); err != nil {
				panic(fmt.Errorf("core: SNP %d: %v", snp, err))
			}
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

// skatFromUBlocks runs Algorithm 1 steps 8–12 over RDD U: marginal scores
// come from a matrix–vector product over each stats.UBlock (one pass over the
// flat contribution matrix; row sums for the observed statistic, U·z for a
// Monte Carlo replicate, Algorithm 3 step 4(I)), emitted in row order, then
// flow through skatFromScores. mc is nil for the observed statistic and the
// per-patient weights Z otherwise.
func (a *Analysis) skatFromUBlocks(u *rdd.RDD[stats.UBlock], mc []float64) ([]float64, error) {
	var mcb *rdd.Broadcast[[]float64]
	if mc != nil {
		mcb = rdd.NewBroadcast(a.ctx, mc, int64(len(mc))*8)
	}
	inner := rdd.FlatMap(u, "blockScores", func(b stats.UBlock) []rdd.KV[int, float64] {
		var z []float64
		if mcb != nil {
			z = mcb.Value()
		}
		scores := b.Scores(z, nil)
		out := make([]rdd.KV[int, float64], len(scores))
		for r, s := range scores {
			out[r] = rdd.KV[int, float64]{K: int(b.SNPs[r]), V: s}
		}
		return out
	}).SetSizeHint(16)
	return a.skatFromScores(inner)
}

// skatFromScores finishes Algorithm 1 from per-SNP marginal scores: join the
// weights, apply the set statistic's per-SNP term, aggregate into SNP-sets
// with a reduce, finalise per set, and return S indexed by set.
func (a *Analysis) skatFromScores(inner *rdd.RDD[rdd.KV[int, float64]]) ([]float64, error) {
	joined := rdd.Join(a.weightsRDD, inner, 0)
	setStat := a.setStat
	snpScore := rdd.Map(joined, "snpScore", func(kv rdd.KV[int, rdd.JoinPair[float64, float64]]) rdd.KV[int, float64] {
		return rdd.KV[int, float64]{K: kv.K, V: setStat.PerSNP(kv.V.Left, kv.V.Right)}
	}).SetSizeHint(16)

	member := a.membership
	perSet := rdd.FlatMap(snpScore, "bySet", func(kv rdd.KV[int, float64]) []rdd.KV[int, float64] {
		sets := member.Value()[kv.K]
		out := make([]rdd.KV[int, float64], len(sets))
		for i, k := range sets {
			out[i] = rdd.KV[int, float64]{K: k, V: kv.V}
		}
		return out
	}).SetSizeHint(16)

	sums, err := rdd.CollectAsMap(rdd.ReduceByKey(perSet, func(x, y float64) float64 { return x + y }, 0))
	if err != nil {
		return nil, err
	}
	s := make([]float64, len(a.sets))
	for k := range s {
		s[k] = setStat.Finalize(sums[k])
	}
	return s, nil
}

// repFunc computes one resampling pass over a built RDD U: the observed
// statistic for z == nil, or the Monte Carlo reweighted statistic for
// per-patient draws z.
type repFunc func(z []float64) ([]float64, error)

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
	return func(z []float64) ([]float64, error) { return a.skatFromUBlocks(u, z) }, release, nil
}

// pipelineOnce runs the full Algorithm 1 pipeline once for the given
// phenotype — the unit of work a permutation replicate re-executes.
func (a *Analysis) pipelineOnce(ph *data.Phenotype) ([]float64, error) {
	blocks, err := a.filteredGenotypeBlocks()
	if err != nil {
		return nil, err
	}
	return a.skatFromUBlocks(a.contributionBlocks(blocks, ph), nil)
}

// Observed computes the observed SKAT statistics S_k^0 (Algorithm 1).
func (a *Analysis) Observed() ([]float64, error) {
	rep, release, err := a.contributionSource(false)
	if err != nil {
		return nil, err
	}
	defer release()
	return rep(nil)
}

// Permutation runs Algorithm 2: the observed statistic, then B full pipeline
// re-executions under random shufflings of the phenotype pairs.
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
	observed, err := a.Observed()
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	root := rng.New(a.opts.Seed ^ 0x5ca1ab1e)
	for b := 1; b <= iterations; b++ {
		perm := root.Split(uint64(b)).Perm(a.patients)
		rep, err := a.pipelineOnce(a.phenotype.Permuted(perm))
		if err != nil {
			return nil, fmt.Errorf("core: permutation replicate %d: %w", b, err)
		}
		counter.Add(rep)
	}
	return a.result(observed, counter), nil
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
// then B cheap reweightings Ũ_j = Σ_i Z_i U_ij with Z ~ N(0,1).
func (a *Analysis) MonteCarlo(iterations int) (*Result, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: %d iterations", iterations)
	}
	rep, release, err := a.contributionSource(a.opts.cache())
	if err != nil {
		return nil, err
	}
	defer release()
	observed, err := rep(nil)
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	root := rng.New(a.opts.Seed ^ 0xcafe)
	for b := 1; b <= iterations; b++ {
		r := root.Split(uint64(b))
		z := make([]float64, a.patients)
		for i := range z {
			z[i] = r.Normal()
		}
		s, err := rep(z)
		if err != nil {
			return nil, fmt.Errorf("core: Monte Carlo replicate %d: %w", b, err)
		}
		counter.Add(s)
	}
	return a.result(observed, counter), nil
}

// Replicate computes one Monte Carlo reweighting Ũ = Σ_i Z_i U_i with
// Z ~ N(0,1) drawn from the replicate's split of the analysis seed stream —
// the unit of interactive resampling the job server exposes. Replicate(b)
// returns exactly the b-th replicate MonteCarlo(B) would produce for b ≤ B,
// so served replicates and batch runs agree. Against a Warm()ed analysis it
// is a single cached-read job, cheap enough to serve at interactive latency.
func (a *Analysis) Replicate(replicate uint64) ([]float64, error) {
	rep, release, err := a.contributionSource(false)
	if err != nil {
		return nil, err
	}
	defer release()
	r := rng.New(a.opts.Seed ^ 0xcafe).Split(replicate)
	z := make([]float64, a.patients)
	for i := range z {
		z[i] = r.Normal()
	}
	return rep(z)
}

func (a *Analysis) result(observed []float64, counter *stats.Counter) *Result {
	res := &Result{
		Sets:       a.sets,
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

func parseWeightLine(line string) (int, float64, error) {
	idStr, wStr, ok := strings.Cut(line, "\t")
	if !ok {
		return 0, 0, fmt.Errorf("core: weight line missing tab: %q", truncate(line))
	}
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 {
		return 0, 0, fmt.Errorf("core: bad SNP id %q", idStr)
	}
	w, err := strconv.ParseFloat(wStr, 64)
	if err != nil || w < 0 {
		return 0, 0, fmt.Errorf("core: bad weight %q", wStr)
	}
	return id, w, nil
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
