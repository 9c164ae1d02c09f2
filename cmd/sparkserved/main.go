// Command sparkserved keeps a SparkScore driver alive behind an HTTP/JSON
// API: the dataset is staged once, and score, SKAT, and resampling requests
// then run as concurrent jobs on the shared simulated cluster under the
// engine's FIFO or FAIR scheduler — the repo's counterpart of serving a Spark
// application through Livy or spark-jobserver instead of one spark-submit
// per analysis.
//
//	sparkserved -generate -patients 1000 -snps 10000 -sets 100 \
//	    -mode fair -pools '[{"name":"interactive","weight":3,"minShare":8},{"name":"batch"}]'
//
//	curl -s localhost:8080/v1/skat -d '{"top":5,"pool":"interactive"}'
//	curl -s localhost:8080/v1/resample -d '{"method":"replicate","replicate":7,"pool":"batch"}'
//
// With -eqtl-phenos N the server also generates N expression phenotypes over
// the cohort and exposes the all-pairs association engine on /v1/eqtl; pages
// of the streamed top-K come back via page/page_size:
//
//	curl -s localhost:8080/v1/eqtl -d '{"page":0,"page_size":25,"pool":"batch"}'
//
// Every job endpoint accepts timeout_ms, a server-side deadline on the whole
// request; past it (or on client disconnect) the running job is cancelled at
// its next task boundary, the pool slot is freed, and the request is
// answered 408 Request Timeout with a Retry-After (a disconnect is recorded
// as 499 in /v1/jobs and /v1/stats). Cancellation leaves the shared driver
// reusable: subsequent requests still match the batch CLI bit for bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/server"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8080", "listen address")

		dir      = flag.String("dir", "", "directory with genotypes.txt/phenotype.txt/weights.txt/snpsets.txt")
		generate = flag.Bool("generate", false, "generate a synthetic dataset instead of reading -dir")
		patients = flag.Int("patients", 1000, "patients for -generate")
		snps     = flag.Int("snps", 10000, "SNPs for -generate")
		sets     = flag.Int("sets", 100, "SNP-sets for -generate")

		eqtlPhenos = flag.Int("eqtl-phenos", 0, "expression phenotypes to generate for the all-pairs /v1/eqtl endpoint (0 disables it)")
		eqtlTop    = flag.Int("eqtl-top", 100, "most-significant pairs the eQTL engine keeps")

		family  = flag.String("family", "cox", `score family: "cox", "gaussian", or "binomial"`)
		setStat = flag.String("set-stat", "skat", `SNP-set statistic: "skat" or "burden"`)
		seed    = flag.Uint64("seed", 1, "seed for data generation and resampling")
		warm    = flag.Bool("warm", true, "pre-materialise and cache the packed genotype matrix before serving")

		nodes = flag.Int("nodes", 6, "simulated cluster nodes (m3.2xlarge)")
		execs = flag.Int("executors-per-node", 2, "YARN containers per node")
		cores = flag.Int("cores", 4, "cores per container")
		mem   = flag.Float64("mem", 10, "memory per container (GiB)")

		mode  = flag.String("mode", "fair", `job scheduler: "fifo" or "fair"`)
		pools = flag.String("pools", "", `serving pools as a JSON array, or @file to read one (default: a single "default" pool)`)

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	)
	flag.Parse()
	if err := checkEQTLFlags(*eqtlPhenos, *eqtlTop); err != nil {
		fatal(err)
	}

	schedMode, err := rdd.ParseSchedulerMode(*mode)
	if err != nil {
		fatal(err)
	}
	poolCfgs, err := loadPools(*pools)
	if err != nil {
		fatal(err)
	}
	ds, err := loadDataset(*dir, *generate, *patients, *snps, *sets, *seed)
	if err != nil {
		fatal(err)
	}
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes: *nodes, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: *execs, CoresPerExecutor: *cores, MemPerExecutorGiB: *mem,
		},
		Seed:      *seed,
		Scheduler: server.SchedulerConfig(schedMode, poolCfgs),
	})
	if err != nil {
		fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "input")
	if err != nil {
		fatal(err)
	}
	analysis, err := core.NewAnalysis(ctx, paths, core.Options{
		Family: *family, SetStatistic: *setStat, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	if *warm {
		fmt.Println("sparkserved: warming the packed genotype cache ...")
		if err := analysis.Warm(); err != nil {
			fatal(err)
		}
	}
	scfg := server.Config{Context: ctx, Analysis: analysis, Pools: poolCfgs}
	if *eqtlPhenos > 0 {
		// The expression matrix stages beside the dataset; the eQTL engine
		// re-reads the already-staged genotypes, so the two endpoints share one
		// copy of the large side.
		expr := gen.ExpressionMatrix(gen.Config{Patients: analysis.Patients()}, rng.New(*seed), *eqtlPhenos)
		if err := assoc.StagePhenotypes(ctx, phenoMatrixPath, expr); err != nil {
			fatal(err)
		}
		eq, err := assoc.NewAnalysis(ctx, paths.Genotypes, phenoMatrixPath, assoc.Config{TopK: *eqtlTop})
		if err != nil {
			fatal(err)
		}
		scfg.EQTL = eq
	}
	srv, err := server.New(scfg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Printf("sparkserved: %d patients, %d SNPs, %d SNP-sets; %s scheduling, %d pools; serving on http://%s\n",
		analysis.Patients(), ds.Genotypes.SNPs(), len(analysis.Sets()),
		schedMode, len(poolCfgs), *addr)
	fmt.Printf("  try: curl -s %s/v1/skat -d '{\"top\":5}'\n", "http://"+*addr)
	if scfg.EQTL != nil {
		fmt.Printf("  eqtl: %d phenotypes × %d SNPs all-pairs on /v1/eqtl\n",
			scfg.EQTL.Phenos(), ds.Genotypes.SNPs())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		fatal(err)
	case s := <-sig:
		fmt.Printf("sparkserved: %s: draining (in-flight requests finish, new ones get 503) ...\n", s)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "sparkserved: drain:", err)
		}
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "sparkserved: shutdown:", err)
		}
		fmt.Printf("sparkserved: stopped after %.1f simulated seconds over %d jobs\n",
			ctx.VirtualTime(), ctx.JobCount())
	}
}

// checkEQTLFlags refuses -eqtl-phenos below 0 and -eqtl-top below 1, which
// assoc.Config would read as its default of 100 pairs.
func checkEQTLFlags(phenos, top int) error {
	if phenos < 0 {
		return fmt.Errorf("-eqtl-phenos %d: must be non-negative (0 disables /v1/eqtl)", phenos)
	}
	if top < 1 {
		return fmt.Errorf("-eqtl-top %d: must be at least 1", top)
	}
	return nil
}

// phenoMatrixPath is where the eQTL endpoint's expression matrix stages,
// beside the dataset's files.
const phenoMatrixPath = "input/phenomatrix.txt"

// loadPools parses the -pools flag: empty, inline JSON, or @file.
func loadPools(spec string) ([]server.PoolConfig, error) {
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return server.ParsePools(f)
	}
	return server.ParsePools(strings.NewReader(spec))
}

func loadDataset(dir string, generate bool, patients, snps, sets int, seed uint64) (*data.Dataset, error) {
	if generate || dir == "" {
		return gen.Generate(gen.Config{Patients: patients, SNPs: snps, SNPSets: sets}, seed)
	}
	return data.ReadDataset(os.DirFS(dir))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparkserved:", err)
	os.Exit(1)
}
