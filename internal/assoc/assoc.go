// Package assoc implements the all-pairs eQTL/PheWAS association engine: N
// SNP-block partitions crossed with M expression phenotypes, every (SNP,
// phenotype) pair scored with the paper's marginal score statistic, and the
// result reduced to a streaming top-K plus a histogram-sketch
// Benjamini–Hochberg FDR summary — billions of tests, bounded driver state.
//
// The cross runs in one of two strategies, picked by whichever side is
// smaller:
//
//   - broadcast: the phenotype matrix is broadcast whole and each genotype
//     partition scores all phenotypes in one pass — the eQTL norm, where
//     thousands of phenotypes fit beside a partition of a much larger
//     genotype matrix;
//   - cartesian: phenotype batches become an RDD and rdd.Cartesian crosses
//     them with genotype partitions, each output partition pairing one
//     genotype partition with one batch — for phenotype matrices too large to
//     ship to every task.
//
// Both strategies visit the same pairs with the same arithmetic, so their
// results are identical; the wide multi-phenotype kernel (stats.WideKernel)
// decodes each genotype row once and scores the whole phenotype batch off its
// non-zero dosages.
package assoc

import (
	"bytes"
	"fmt"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
	"sparkscore/internal/stats"
)

// Config tunes an all-pairs analysis.
type Config struct {
	// Family selects the score statistic: "gaussian" (default) or
	// "binomial". Cox has no factorised variance and is not supported.
	Family string

	// TopK is the number of most-significant pairs to keep (default 100).
	TopK int

	// Alpha is the Benjamini–Hochberg false-discovery rate (default 0.05).
	Alpha float64

	// HistBins is the width of the p-value histogram sketch (default 4096).
	HistBins int

	// Strategy forces a join strategy: "auto" (default — broadcast when the
	// phenotype matrix is small enough, cartesian otherwise), "broadcast", or
	// "cartesian".
	Strategy string

	// PhenoBatch is the number of phenotypes per batch on the cartesian path
	// (default 64).
	PhenoBatch int
}

func (c Config) family() string {
	if c.Family == "" {
		return "gaussian"
	}
	return c.Family
}

func (c Config) topK() int {
	if c.TopK == 0 {
		return 100
	}
	return c.TopK
}

func (c Config) alpha() float64 {
	if c.Alpha == 0 {
		return 0.05
	}
	return c.Alpha
}

func (c Config) histBins() int {
	if c.HistBins == 0 {
		return 4096
	}
	return c.HistBins
}

func (c Config) phenoBatch() int {
	if c.PhenoBatch == 0 {
		return 64
	}
	return c.PhenoBatch
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.family() {
	case "gaussian", "binomial":
	default:
		return fmt.Errorf("assoc: family %q (the all-pairs engine needs a factorised variance: gaussian or binomial)", c.Family)
	}
	switch c.Strategy {
	case "", "auto", "broadcast", "cartesian":
	default:
		return fmt.Errorf("assoc: strategy %q, want auto, broadcast, or cartesian", c.Strategy)
	}
	switch {
	case c.TopK < 0:
		return fmt.Errorf("assoc: TopK = %d, must be non-negative", c.TopK)
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("assoc: Alpha = %g outside [0,1]", c.Alpha)
	case c.HistBins < 0:
		return fmt.Errorf("assoc: HistBins = %d, must be non-negative", c.HistBins)
	case c.PhenoBatch < 0:
		return fmt.Errorf("assoc: PhenoBatch = %d, must be non-negative", c.PhenoBatch)
	}
	return nil
}

// broadcastMaxBytes is the auto-strategy cutover: phenotype matrices at or
// under this size are broadcast, larger ones go through the cartesian join.
const broadcastMaxBytes = 32 << 20

// Analysis binds a driver context to a staged genotype file and a phenotype
// matrix and runs the all-pairs cross.
type Analysis struct {
	ctx      *rdd.Context
	cfg      Config
	genoPath string
	phenos   *data.PhenoMatrix
	phenoBC  *rdd.Broadcast[*data.PhenoMatrix]
}

// NewAnalysis reads the phenotype matrix onto the driver, validates the
// configuration and the score family against it, and leaves the genotype
// matrix on the DFS to be streamed through tasks.
func NewAnalysis(ctx *rdd.Context, genoPath, phenoPath string, cfg Config) (*Analysis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	raw, err := ctx.FS().ReadAll(phenoPath)
	if err != nil {
		return nil, err
	}
	phenos, err := data.ReadPhenoMatrix(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	// Fail fast on an unusable family before any job runs: every row must
	// build (binomial additionally requires 0/1 outcomes with both classes).
	for r := 0; r < phenos.Rows(); r++ {
		if _, err := stats.NewModel(cfg.family(), phenos.Phenotype(r)); err != nil {
			return nil, fmt.Errorf("assoc: phenotype %d: %w", phenos.IDs[r], err)
		}
	}
	if !ctx.FS().Exists(genoPath) {
		return nil, fmt.Errorf("assoc: genotype file %q not staged", genoPath)
	}
	return &Analysis{
		ctx:      ctx,
		cfg:      cfg,
		genoPath: genoPath,
		phenos:   phenos,
		phenoBC:  rdd.NewBroadcast(ctx, phenos, phenos.ApproxBytes()),
	}, nil
}

// Phenos returns the number of expression phenotypes.
func (a *Analysis) Phenos() int { return a.phenos.Rows() }

// Patients returns the cohort size.
func (a *Analysis) Patients() int { return a.phenos.Patients }

// Strategy returns the join strategy the next Run will use.
func (a *Analysis) Strategy() string {
	switch a.cfg.Strategy {
	case "broadcast", "cartesian":
		return a.cfg.Strategy
	}
	if a.phenos.ApproxBytes() <= broadcastMaxBytes {
		return "broadcast"
	}
	return "cartesian"
}

// Run executes the all-pairs cross and returns the merged result.
func (a *Analysis) Run() (*Result, error) {
	blocks, err := a.genotypeBlocks()
	if err != nil {
		return nil, err
	}
	strategy := a.Strategy()
	var parts []partial
	switch strategy {
	case "broadcast":
		parts, err = a.broadcastPartials(blocks)
	case "cartesian":
		parts, err = a.cartesianPartials(blocks)
	}
	if err != nil {
		return nil, err
	}
	res := mergePartials(parts, a.cfg.topK(), a.cfg.histBins(), a.cfg.alpha())
	res.Strategy = strategy
	res.Phenos = a.phenos.Rows()
	res.SNPBlocks = blocks.Partitions()
	return res, nil
}

// genotypeBlocks packs the genotype text into 2-bit columnar blocks at the
// source — the all-pairs ingest analyses every SNP, so unlike the SKAT
// pipeline there is no set-membership filter.
func (a *Analysis) genotypeBlocks() (*rdd.RDD[data.GenoBlock], error) {
	lines, err := a.ctx.TextFile(a.genoPath, 0)
	if err != nil {
		return nil, err
	}
	patients := a.phenos.Patients
	blocks := rdd.MapBatches(lines, "parsePackAllGenotypes", data.GenoBlockRows, func(_ int, batch []string) data.GenoBlock {
		blk, err := data.ParseGenoBlock(batch, patients, nil)
		if err != nil {
			panic(err)
		}
		return blk
	})
	fullBlock := int64(data.GenoBlockRows)*(int64(data.BlockRowBytes(patients))+8) + 96
	return blocks.SetSizeHint(fullBlock).SetSizeFunc(data.GenoBlock.ApproxBytes), nil
}

// newKernel builds the wide kernel over the per-phenotype score models of
// rows [0, Rows()) of m. NewAnalysis checked that every row builds a model;
// what can still fail here is a row whose centred values overflow float64,
// which the kernel rejects.
func newKernel(family string, m *data.PhenoMatrix) (*stats.WideKernel, error) {
	models := make([]stats.Model, m.Rows())
	for r := range models {
		model, err := stats.NewModel(family, m.Phenotype(r))
		if err != nil {
			return nil, fmt.Errorf("assoc: phenotype %d: %w", m.IDs[r], err)
		}
		models[r] = model
	}
	k, err := stats.NewWideKernel(models)
	if err != nil {
		return nil, fmt.Errorf("assoc: phenotype batch starting at id %d: %w", m.IDs[0], err)
	}
	return k, nil
}

func pairResult(snp, pheno int32, score, variance float64) PairResult {
	return PairResult{
		SNP:      snp,
		Pheno:    pheno,
		Score:    score,
		Variance: variance,
		PValue:   stats.ChiSquaredSurvival(stats.Chi2Stat(score, variance), 1),
	}
}

// broadcastPartials runs the broadcast strategy: the wide kernel's table over
// the whole phenotype matrix is built once here on the driver and shared
// read-only; each genotype partition forks its own scratch, scores every
// block through it, and emits one partial.
func (a *Analysis) broadcastPartials(blocks *rdd.RDD[data.GenoBlock]) ([]partial, error) {
	shared, err := newKernel(a.cfg.family(), a.phenos)
	if err != nil {
		return nil, err
	}
	bc := a.phenoBC
	k, bins := a.cfg.topK(), a.cfg.histBins()
	partials := rdd.MapPartitions(blocks, "assocPartials", func(_ int, in []data.GenoBlock) []partial {
		m := bc.Value()
		kernel := shared.Fork()
		acc := newAccumulator(k, bins)
		visit := func(snp int32, pheno int, score, variance float64) {
			acc.add(pairResult(snp, m.IDs[pheno], score, variance))
		}
		for _, blk := range in {
			kernel.BlockStats(blk, visit)
		}
		return []partial{acc.partial()}
	}).SetSizeHint(int64(k)*40 + int64(bins)*8 + 64)
	return rdd.Collect(partials)
}

// cartesianPartials runs the block-join strategy: the phenotype matrix is
// split into batches, parallelised, and crossed with the genotype partitions
// through rdd.Cartesian; each output partition pairs one genotype partition
// with one batch and emits one partial.
func (a *Analysis) cartesianPartials(blocks *rdd.RDD[data.GenoBlock]) ([]partial, error) {
	batches := a.phenoBatches()
	right := rdd.Parallelize(a.ctx, batches, len(batches)).
		SetSizeFunc(data.PhenoMatrix.ApproxBytes)
	pairs := rdd.Cartesian(blocks, right)
	family := a.cfg.family()
	k, bins := a.cfg.topK(), a.cfg.histBins()
	partials := rdd.MapPartitions(pairs, "assocPairPartials", func(_ int, in []rdd.Pair[data.GenoBlock, data.PhenoMatrix]) []partial {
		acc := newAccumulator(k, bins)
		// One batch per right partition, so the kernel builds once per
		// partition; the guard keys on the batch's first phenotype id in case
		// a partition ever spans batches.
		var kernel *stats.WideKernel
		var ids []int32
		visit := func(snp int32, pheno int, score, variance float64) {
			acc.add(pairResult(snp, ids[pheno], score, variance))
		}
		for i := range in {
			batch := &in[i].Right
			if batch.Rows() == 0 {
				continue
			}
			if kernel == nil || batch.IDs[0] != ids[0] {
				var err error
				if kernel, err = newKernel(family, batch); err != nil {
					panic(err) // fails the task; the job reports it
				}
				ids = batch.IDs
			}
			kernel.BlockStats(in[i].Left, visit)
		}
		return []partial{acc.partial()}
	}).SetSizeHint(int64(k)*40 + int64(bins)*8 + 64)
	return rdd.Collect(partials)
}

// phenoBatches slices the phenotype matrix into batches of at most
// cfg.PhenoBatch rows. Each batch shares the parent's value storage.
func (a *Analysis) phenoBatches() []data.PhenoMatrix {
	size := a.cfg.phenoBatch()
	m := a.phenos
	var out []data.PhenoMatrix
	for lo := 0; lo < m.Rows(); lo += size {
		hi := lo + size
		if hi > m.Rows() {
			hi = m.Rows()
		}
		out = append(out, data.PhenoMatrix{
			Patients: m.Patients,
			IDs:      m.IDs[lo:hi],
			Values:   m.Values[lo*m.Patients : hi*m.Patients],
		})
	}
	return out
}
