// The dataset directory: the five files a Dataset is stored as — on local
// disk (datagen writes it, sparkscore and sparkserved read it with -dir) and,
// under a name prefix, on the simulated HDFS (core.StageDataset).

package data

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// The file names of a dataset directory.
const (
	GenotypesFile  = "genotypes.txt"
	PhenotypeFile  = "phenotype.txt"
	WeightsFile    = "weights.txt"
	SNPSetsFile    = "snpsets.txt"
	CovariatesFile = "covariates.txt" // optional: present only for adjusted analyses
)

// datasetFiles is the directory as one table: each file's name and how it is
// read into and written out of a Dataset. has reports whether the dataset
// carries an optional file; nil marks the four files every dataset has.
var datasetFiles = []struct {
	name  string
	has   func(*Dataset) bool
	read  func(*Dataset, io.Reader) error
	write func(*Dataset, io.Writer) error
}{
	{GenotypesFile, nil,
		func(d *Dataset, r io.Reader) (err error) { d.Genotypes, err = ReadGenotypes(r); return },
		func(d *Dataset, w io.Writer) error { return WriteGenotypes(w, d.Genotypes) }},
	{PhenotypeFile, nil,
		func(d *Dataset, r io.Reader) (err error) { d.Phenotype, err = ReadPhenotype(r); return },
		func(d *Dataset, w io.Writer) error { return WritePhenotype(w, d.Phenotype) }},
	{WeightsFile, nil,
		func(d *Dataset, r io.Reader) (err error) { d.Weights, err = ReadWeights(r); return },
		func(d *Dataset, w io.Writer) error { return WriteWeights(w, d.Weights) }},
	{SNPSetsFile, nil,
		func(d *Dataset, r io.Reader) (err error) { d.SNPSets, err = ReadSNPSets(r); return },
		func(d *Dataset, w io.Writer) error { return WriteSNPSets(w, d.SNPSets) }},
	{CovariatesFile, func(d *Dataset) bool { return d.Covariates != nil },
		func(d *Dataset, r io.Reader) (err error) { d.Covariates, err = ReadCovariates(r); return },
		func(d *Dataset, w io.Writer) error { return WriteCovariates(w, d.Covariates) }},
}

// ReadDataset reads a dataset directory and validates the result. A missing
// optional file leaves its field nil; any other failure to open or parse a
// file is an error naming it.
func ReadDataset(dir fs.FS) (*Dataset, error) {
	ds := &Dataset{}
	for _, file := range datasetFiles {
		f, err := dir.Open(file.name)
		if err != nil {
			if file.has != nil && errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		err = file.read(ds, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("data: reading %s: %w", file.name, err)
		}
	}
	return ds, ds.Validate()
}

// WriteDataset validates ds and writes it as a dataset directory through
// create, which opens the named file for writing; an optional file the
// dataset does not carry is not created.
func WriteDataset(ds *Dataset, create func(name string) (io.WriteCloser, error)) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	for _, file := range datasetFiles {
		if file.has != nil && !file.has(ds) {
			continue
		}
		w, err := create(file.name)
		if err != nil {
			return err
		}
		err = file.write(ds, w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("data: writing %s: %w", file.name, err)
		}
	}
	return nil
}
