// Result verification. Every check recomputes what the pipeline reported from
// the generated text by another route: the single-threaded reference
// implementations for resampling, per-pair score/variance/p-value functions
// for the all-pairs cross. A failed check fails the run's operations.

package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sparkscore/internal/assoc"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/stats"
)

// tolerance is the relative error allowed between a pipeline's floats and
// their recomputation (summation orders differ between the two).
const tolerance = 1e-9

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= tolerance*math.Max(math.Abs(a), math.Abs(b))
}

// dataset parses the generated text back into the driver-side model the
// reference implementations take.
func (in *inputs) dataset() (*data.Dataset, error) {
	ds := &data.Dataset{}
	var err error
	if ds.Genotypes, err = data.ReadGenotypes(bytes.NewReader(in.geno)); err != nil {
		return nil, err
	}
	if ds.Phenotype, err = data.ReadPhenotype(bytes.NewReader(in.pheno)); err != nil {
		return nil, err
	}
	if ds.Weights, err = data.ReadWeights(bytes.NewReader(in.weights)); err != nil {
		return nil, err
	}
	if ds.SNPSets, err = data.ReadSNPSets(bytes.NewReader(in.sets)); err != nil {
		return nil, err
	}
	return ds, ds.Validate()
}

// verifyResample re-runs the pipeline at verifyIterations on a fresh context
// and compares it with the single-threaded reference on the same files.
func verifyResample(in *inputs, resample resampleFunc, reference referenceFunc) error {
	ctx, err := newContext(in.seed, ctxOptions{})
	if err != nil {
		return err
	}
	if err := in.stage(ctx); err != nil {
		return err
	}
	a, err := core.NewAnalysis(ctx, corePaths(), coreOptions(in.seed))
	if err != nil {
		return err
	}
	got, err := resample(a, verifyIterations)
	if err != nil {
		return err
	}
	ds, err := in.dataset()
	if err != nil {
		return err
	}
	want, err := reference(ds, coreOptions(in.seed), verifyIterations)
	if err != nil {
		return err
	}
	if len(got.Observed) != len(want.Observed) || len(got.Observed) != in.shape.Sets {
		return fmt.Errorf("%d sets from the pipeline, %d from the reference, %d generated",
			len(got.Observed), len(want.Observed), in.shape.Sets)
	}
	for k := range want.Observed {
		if !closeTo(got.Observed[k], want.Observed[k]) {
			return fmt.Errorf("set %d: observed %g, reference %g", k, got.Observed[k], want.Observed[k])
		}
		if got.Exceed[k] != want.Exceed[k] {
			return fmt.Errorf("set %d: %d exceedances, reference %d", k, got.Exceed[k], want.Exceed[k])
		}
	}
	return nil
}

// genotypeRow parses SNP snp's line out of the genotype text. Lines are
// written in SNP order, so lines[snp] is the candidate; its id is checked.
func genotypeRow(lines []string, snp int) ([]data.Genotype, error) {
	if snp < 0 || snp >= len(lines) {
		return nil, fmt.Errorf("SNP %d outside the %d generated", snp, len(lines))
	}
	id, rest, ok := strings.Cut(lines[snp], "\t")
	if n, err := strconv.Atoi(id); !ok || err != nil || n != snp {
		return nil, fmt.Errorf("genotype line %d carries SNP id %q", snp, id)
	}
	return data.ParseGenotypeFields(strings.Fields(rest))
}

// verifyEQTL checks an all-pairs result against the generated inputs.
func verifyEQTL(r *runReport, in *inputs, res *assoc.Result) {
	sh := in.shape
	var err error
	if want := int64(sh.SNPs) * int64(sh.Phenos); res.Tested != want {
		err = fmt.Errorf("tested %d pairs, want %d", res.Tested, want)
	}
	r.addCheck("every (SNP, phenotype) pair was tested", err)
	r.addCheck("planted pairs lead the top-K", plantedLead(in.planted, res.TopK))
	r.addCheck("every top-K row recomputes from the raw genotype row", recomputeTopK(in, res.TopK))
}

func plantedLead(planted []pair, top []assoc.PairResult) error {
	if len(top) < len(planted) {
		return fmt.Errorf("top-K holds %d pairs, %d were planted", len(top), len(planted))
	}
	lead := map[pair]bool{}
	for _, p := range top[:len(planted)] {
		lead[pair{p.SNP, p.Pheno}] = true
	}
	for _, p := range planted {
		if !lead[p] {
			return fmt.Errorf("planted pair (SNP %d, phenotype %d) is not among the top %d", p.SNP, p.Pheno, len(planted))
		}
	}
	return nil
}

func recomputeTopK(in *inputs, top []assoc.PairResult) error {
	expr, err := data.ReadPhenoMatrix(bytes.NewReader(in.expr))
	if err != nil {
		return err
	}
	rowOf := map[int32]int{}
	for r, id := range expr.IDs {
		rowOf[id] = r
	}
	lines := strings.Split(strings.TrimRight(string(in.geno), "\n"), "\n")
	for _, p := range top {
		g, err := genotypeRow(lines, int(p.SNP))
		if err != nil {
			return err
		}
		r, ok := rowOf[p.Pheno]
		if !ok {
			return fmt.Errorf("top-K names phenotype %d, which was not generated", p.Pheno)
		}
		model, err := stats.NewModel("gaussian", expr.Phenotype(r))
		if err != nil {
			return err
		}
		score, variance := stats.Score(model, g), model.Variance(g)
		pvalue := stats.ChiSquaredSurvival(stats.Chi2Stat(score, variance), 1)
		if !closeTo(p.Score, score) || !closeTo(p.Variance, variance) || !closeTo(p.PValue, pvalue) {
			return fmt.Errorf("pair (SNP %d, phenotype %d): reported score %g variance %g p %g, recomputed %g %g %g",
				p.SNP, p.Pheno, p.Score, p.Variance, p.PValue, score, variance, pvalue)
		}
	}
	return nil
}
