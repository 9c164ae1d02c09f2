// Command datagen generates the paper's synthetic datasets (Section III) as
// text files on the local file system, in the formats sparkscore consumes:
//
//	datagen -patients 1000 -snps 100000 -sets 1000 -out ./dataset
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

func main() {
	var (
		patients = flag.Int("patients", 1000, "number of patients (n)")
		snps     = flag.Int("snps", 10000, "number of SNPs (m)")
		sets     = flag.Int("sets", 100, "number of SNP-sets (K)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		out      = flag.String("out", "dataset", "output directory")
		minMAF   = flag.Float64("min-maf", 0.01, "minimum relative allelic frequency")
		maxMAF   = flag.Float64("max-maf", 0.5, "maximum relative allelic frequency")
		events   = flag.Float64("event-rate", 0.85, "Bernoulli event rate")
		survival = flag.Float64("mean-survival", 12, "mean exponential survival time")
		scheme   = flag.String("weight-scheme", "flat", `SKAT weights: "flat" (all 1) or "beta" (Beta(MAF;a,b))`)
		betaA    = flag.Float64("beta-a", 1, "Beta weight shape a (with -weight-scheme beta)")
		betaB    = flag.Float64("beta-b", 25, "Beta weight shape b (with -weight-scheme beta)")
		withCov  = flag.Bool("covariates", false, "also generate a baseline covariates file (age, sex)")
	)
	flag.Parse()

	cfg := gen.Config{
		Patients: *patients, SNPs: *snps, SNPSets: *sets,
		MinMAF: *minMAF, MaxMAF: *maxMAF,
		EventRate: *events, MeanSurvival: *survival,
	}
	ds, err := gen.Generate(cfg, *seed)
	if err != nil {
		fatal(err)
	}
	switch *scheme {
	case "flat":
	case "beta":
		if ds.Weights, err = stats.BetaMAFWeights(ds.Genotypes, *betaA, *betaB); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown weight scheme %q", *scheme))
	}
	if *withCov {
		ds.Covariates = gen.Covariates(cfg, rng.New(*seed^0xc0))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var wrote []string
	err = data.WriteDataset(ds, func(name string) (io.WriteCloser, error) {
		path := filepath.Join(*out, name)
		wrote = append(wrote, path)
		return os.Create(path)
	})
	if err != nil {
		fatal(err)
	}
	for _, path := range wrote {
		fmt.Printf("wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
