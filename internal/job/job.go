// Package job is the run description sparkscore and sparkserved share: the
// dataset, cluster and analysis flags both declare, the one dataset load, the
// engine and analysis configuration those flags build, and the all-pairs eQTL
// engine opened over a staged dataset — the counterpart of the one fixed
// description a spark-submit carries. What the two binaries do not share
// (modes, output, the server's lifecycle) stays in each main.
package job

import (
	"flag"
	"fmt"
	"os"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

// Run holds the shared flags' values once the flag set is parsed.
type Run struct {
	dir                  string
	generate             bool
	patients, snps, sets int
	seed                 uint64
	family, setStat      string
	nodes, execs, cores  int
	mem                  float64
	eqtlTop              int
}

// Flags declares the shared flags on fs; the returned Run reads them once fs
// is parsed.
func Flags(fs *flag.FlagSet) *Run {
	r := &Run{}
	fs.StringVar(&r.dir, "dir", "", "directory with genotypes.txt/phenotype.txt/weights.txt/snpsets.txt")
	fs.BoolVar(&r.generate, "generate", false, "generate a synthetic dataset instead of reading -dir")
	fs.IntVar(&r.patients, "patients", 1000, "patients for -generate")
	fs.IntVar(&r.snps, "snps", 10000, "SNPs for -generate")
	fs.IntVar(&r.sets, "sets", 100, "SNP-sets for -generate")
	fs.Uint64Var(&r.seed, "seed", 1, "seed for data generation and resampling")
	fs.StringVar(&r.family, "family", "cox", `score family: "cox", "gaussian", or "binomial"`)
	fs.StringVar(&r.setStat, "set-stat", "skat", `SNP-set statistic: "skat" or "burden"`)
	fs.IntVar(&r.nodes, "nodes", 6, "simulated cluster nodes (m3.2xlarge)")
	fs.IntVar(&r.execs, "executors-per-node", 2, "YARN containers per node")
	fs.IntVar(&r.cores, "cores", 4, "cores per container")
	fs.Float64Var(&r.mem, "mem", 10, "memory per container (GiB)")
	fs.IntVar(&r.eqtlTop, "eqtl-top", 100, "most-significant pairs the eQTL engine keeps")
	return r
}

// Check refuses an -eqtl-top below 1, which assoc.Config would read as its
// default of 100 pairs.
func (r *Run) Check() error {
	if r.eqtlTop < 1 {
		return fmt.Errorf("-eqtl-top %d: must be at least 1", r.eqtlTop)
	}
	return nil
}

// Dataset generates the Section III dataset, or reads -dir when it is set
// and -generate is not.
func (r *Run) Dataset() (*data.Dataset, error) {
	if r.generate || r.dir == "" {
		return gen.Generate(gen.Config{Patients: r.patients, SNPs: r.snps, SNPSets: r.sets}, r.seed)
	}
	return data.ReadDataset(os.DirFS(r.dir))
}

// Config is the engine configuration the flags describe: the cluster's shape
// and the seed. Faults, workers, listeners and the scheduler are the
// caller's.
func (r *Run) Config() rdd.Config {
	return rdd.Config{
		Cluster: cluster.Config{
			Nodes: r.nodes, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: r.execs, CoresPerExecutor: r.cores, MemPerExecutorGiB: r.mem,
		},
		Seed: r.seed,
	}
}

// Options is the SKAT analysis the flags describe.
func (r *Run) Options() core.Options {
	return core.Options{Family: r.family, SetStatistic: r.setStat, Seed: r.seed}
}

// OpenEQTL generates phenos expression phenotypes over the staged cohort's
// patients, stages them at matrix and opens the all-pairs engine over them
// and the genotypes already staged at genotypes, so the SKAT analysis and
// the eQTL engine share one copy of the large side.
func (r *Run) OpenEQTL(ctx *rdd.Context, genotypes, matrix string, patients, phenos int) (*assoc.Analysis, error) {
	expr := gen.ExpressionMatrix(gen.Config{Patients: patients}, rng.New(r.seed), phenos)
	if err := assoc.StagePhenotypes(ctx, matrix, expr); err != nil {
		return nil, err
	}
	return assoc.NewAnalysis(ctx, genotypes, matrix, assoc.Config{TopK: r.eqtlTop})
}
