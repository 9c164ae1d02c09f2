// Package assoc implements the all-pairs eQTL/PheWAS association engine: N
// SNP-block partitions crossed with M expression phenotypes, every (SNP,
// phenotype) pair scored with the paper's marginal score statistic, and the
// result reduced to a streaming top-K plus a histogram-sketch
// Benjamini–Hochberg FDR summary — billions of tests, bounded driver state.
//
// The phenotype matrix is the small side, so it ships by broadcast (the
// paper's Algorithm 1, step 6): the wide multi-phenotype kernel
// (stats.WideKernel) is built over it once on the driver, and every genotype
// partition folds its blocks through that one kernel — each row decoded
// once, the whole phenotype matrix scored off its non-zero dosages — into one
// bounded partial. The driver merges partials; it never collects the cross.
package assoc

import (
	"bytes"
	"fmt"

	"sparkscore/internal/core"
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

	// HistBins is the width of the p-value histogram sketch (default 4096).
	HistBins int
}

// fdrAlpha is the Benjamini–Hochberg false-discovery rate of the FDR summary.
const fdrAlpha = 0.05

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

func (c Config) histBins() int {
	if c.HistBins == 0 {
		return 4096
	}
	return c.HistBins
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.family() {
	case "gaussian", "binomial":
	default:
		return fmt.Errorf("assoc: family %q (the all-pairs engine needs a factorised variance: gaussian or binomial)", c.Family)
	}
	switch {
	case c.TopK < 0:
		return fmt.Errorf("assoc: TopK = %d, must be non-negative", c.TopK)
	case c.HistBins < 0:
		return fmt.Errorf("assoc: HistBins = %d, must be non-negative", c.HistBins)
	}
	return nil
}

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

// Strategy names how the phenotype side reaches the tasks. There is one way;
// the method is kept for its one caller, bench/batch.go:384, which refuses to
// time a run that is not "broadcast" (same footing as rdd.Join).
func (a *Analysis) Strategy() string { return "broadcast" }

// Run executes the all-pairs cross and returns the merged result.
func (a *Analysis) Run() (*Result, error) {
	// The all-pairs ingest analyses every SNP: no membership filter.
	blocks, err := core.GenotypeBlocks(a.ctx, a.genoPath, a.phenos.Patients, nil)
	if err != nil {
		return nil, err
	}
	parts, err := a.broadcastPartials(blocks)
	if err != nil {
		return nil, err
	}
	res := mergePartials(parts, a.cfg.topK(), a.cfg.histBins())
	res.Phenos = a.phenos.Rows()
	res.SNPBlocks = blocks.Partitions()
	return res, nil
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

// broadcastPartials runs the cross: the wide kernel's table over the whole
// phenotype matrix is built once here on the driver and shared by every task;
// each genotype partition folds every block through it as the block streams
// by, and emits one partial. On the clock a block costs
// rows × phenotypes × patients operations.
func (a *Analysis) broadcastPartials(blocks *rdd.RDD[data.GenoBlock]) ([]partial, error) {
	kernel, err := newKernel(a.cfg.family(), a.phenos)
	if err != nil {
		return nil, err
	}
	bc := a.phenoBC
	k, bins := a.cfg.topK(), a.cfg.histBins()
	edge := newBHEdge(bins, fdrAlpha)
	partials := rdd.FoldPartition(blocks, "assocPartials", func(t rdd.Task) (func(data.GenoBlock), func() []partial) {
		m := bc.Value()
		perRow := int64(m.Rows()) * int64(m.Patients)
		acc := newAccumulator(k, edge)
		row := func(snp int32, scores, variances []float64) {
			acc.addRow(snp, m.IDs, scores, variances)
		}
		add := func(blk data.GenoBlock) {
			t.Charge(int64(blk.Rows()) * perRow)
			kernel.BlockRows(blk, row)
		}
		finish := func() []partial { return []partial{acc.partial()} }
		return add, finish
	}).SetSizeHint(int64(k)*40 + int64(bins)*8 + 64)
	return rdd.Collect(partials)
}
