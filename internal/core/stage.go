// Staging datasets onto the simulated HDFS in the paper's text formats.

package core

import (
	"io"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
)

// StageDataset writes the input files of Algorithm 1 — the dataset directory
// of internal/data — to the context's file system under the given name prefix
// and returns their paths.
func StageDataset(ctx *rdd.Context, ds *data.Dataset, prefix string) (Paths, error) {
	path := func(name string) string { return prefix + "/" + name }
	err := data.WriteDataset(ds, func(name string) (io.WriteCloser, error) {
		return ctx.FS().Create(path(name)), nil
	})
	if err != nil {
		return Paths{}, err
	}
	paths := Paths{
		Genotypes: path(data.GenotypesFile),
		Phenotype: path(data.PhenotypeFile),
		Weights:   path(data.WeightsFile),
		SNPSets:   path(data.SNPSetsFile),
	}
	if ds.Covariates != nil {
		paths.Covariates = path(data.CovariatesFile)
	}
	return paths, nil
}
