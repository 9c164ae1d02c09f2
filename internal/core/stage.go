// Staging datasets onto the simulated HDFS in the paper's text formats.

package core

import (
	"bytes"
	"io"

	"sparkscore/internal/data"
	"sparkscore/internal/dfs"
	"sparkscore/internal/rdd"
)

// StageDataset writes the input files of Algorithm 1 — the dataset directory
// of internal/data — to the context's file system under the given name prefix
// and returns their paths.
func StageDataset(ctx *rdd.Context, ds *data.Dataset, prefix string) (Paths, error) {
	path := func(name string) string { return prefix + "/" + name }
	err := data.WriteDataset(ds, func(name string) (io.WriteCloser, error) {
		return &stagedFile{fs: ctx.FS(), name: path(name)}, nil
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

// stagedFile buffers one file's text and writes it to the DFS on Close.
type stagedFile struct {
	bytes.Buffer
	fs   *dfs.FS
	name string
}

func (f *stagedFile) Close() error {
	_, err := f.fs.Write(f.name, dfsBytes(f.Bytes()))
	return err
}

// dfsBytes is what a buffer hands the DFS, which keeps the slice it is handed:
// the buffer's own bytes when it was grown once to its text's size (as
// data.WriteGenotypes grows its destination), its slack under an eighth of
// the text, and an exact-size copy of a buffer that grew by doubling, so that
// slack dies with the buffer.
func dfsBytes(b []byte) []byte {
	if cap(b)-len(b) > len(b)/8 {
		return bytes.Clone(b)
	}
	return b[:len(b):len(b)]
}
