// Sequential reference implementations of Algorithms 2 and 3, computed
// directly on a driver-side dataset with no engine involved. They exist (a) as
// the ground truth the distributed pipeline is tested against, and (b) as the
// single-machine baseline bench measures (Algorithm 1's, ReferenceObserved,
// serves only (a) and lives in core's tests). They honour the same
// Options (score family, set statistic, seed) and the same seed-splitting
// scheme as Analysis, so engine and reference results are replicate-for-
// replicate identical.

package core

import (
	"fmt"

	"sparkscore/internal/data"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// ReferencePermutation computes the permutation result sequentially.
func ReferencePermutation(ds *data.Dataset, opts Options, iterations int) (*Result, error) {
	st, err := stats.NewSetStatistic(opts.SetStatistic)
	if err != nil {
		return nil, err
	}
	if ds.Covariates != nil {
		return nil, fmt.Errorf("core: permutation resampling cannot adjust for baseline covariates; use MonteCarlo")
	}
	observed, err := referenceSetStats(ds, opts.family(), st, ds.Phenotype)
	if err != nil {
		return nil, err
	}
	counter := stats.NewCounter(observed)
	root := rng.New(opts.Seed ^ 0x5ca1ab1e)
	n := ds.Phenotype.Patients()
	for b := 1; b <= iterations; b++ {
		perm := root.Split(uint64(b)).Perm(n)
		rep, err := referenceSetStats(ds, opts.family(), st, ds.Phenotype.Permuted(perm))
		if err != nil {
			return nil, err
		}
		counter.Add(rep)
	}
	return newResult(ds.SNPSets, observed, counter), nil
}

// ReferenceMonteCarlo computes the Monte Carlo result sequentially with the
// same draws as Analysis.MonteCarlo.
func ReferenceMonteCarlo(ds *data.Dataset, opts Options, iterations int) (*Result, error) {
	st, err := stats.NewSetStatistic(opts.SetStatistic)
	if err != nil {
		return nil, err
	}
	model, err := stats.NewAdjustedModel(opts.family(), ds.Phenotype, covariateRows(ds))
	if err != nil {
		return nil, err
	}
	n := ds.Phenotype.Patients()
	// Materialise U once — the sequential analogue of caching RDD U.
	u := make([][]float64, ds.Genotypes.SNPs())
	for j := range u {
		u[j] = make([]float64, n)
		model.Contributions(ds.Genotypes.Row(j), u[j])
	}
	scores := make([]float64, len(u))
	sums := func(z []float64) []float64 {
		for j := range u {
			var s float64
			if z == nil {
				for _, v := range u[j] {
					s += v
				}
			} else {
				s = stats.MonteCarloScore(u[j], z)
			}
			scores[j] = s
		}
		return scores
	}
	observed := stats.CombineAll(st, ds.SNPSets, ds.Weights, sums(nil))
	counter := stats.NewCounter(observed)
	root := rng.New(opts.Seed ^ 0xcafe)
	for b := 1; b <= iterations; b++ {
		r := root.Split(uint64(b))
		z := make([]float64, n)
		for i := range z {
			z[i] = r.Normal()
		}
		counter.Add(stats.CombineAll(st, ds.SNPSets, ds.Weights, sums(z)))
	}
	return newResult(ds.SNPSets, observed, counter), nil
}

func covariateRows(ds *data.Dataset) [][]float64 {
	if ds.Covariates == nil {
		return nil
	}
	return ds.Covariates.Rows
}

func referenceSetStats(ds *data.Dataset, family string, st stats.SetStatistic, ph *data.Phenotype) ([]float64, error) {
	model, err := stats.NewAdjustedModel(family, ph, covariateRows(ds))
	if err != nil {
		return nil, fmt.Errorf("core: reference: %w", err)
	}
	scores := make([]float64, ds.Genotypes.SNPs())
	u := make([]float64, ph.Patients())
	for j := range scores {
		model.Contributions(ds.Genotypes.Row(j), u)
		for _, v := range u {
			scores[j] += v
		}
	}
	return stats.CombineAll(st, ds.SNPSets, ds.Weights, scores), nil
}
