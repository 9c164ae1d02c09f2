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

	"sparkscore/internal/core"
	"sparkscore/internal/job"
	"sparkscore/internal/rdd"
	"sparkscore/internal/server"
)

func main() {
	run := job.Flags(flag.CommandLine)
	var (
		addr = flag.String("addr", "127.0.0.1:8080", "listen address")

		eqtlPhenos = flag.Int("eqtl-phenos", 0, "expression phenotypes to generate for the all-pairs /v1/eqtl endpoint (0 disables it)")
		warm       = flag.Bool("warm", true, "pre-materialise and cache the packed genotype matrix before serving")

		mode  = flag.String("mode", "fair", `job scheduler: "fifo" or "fair"`)
		pools = flag.String("pools", "", `serving pools as a JSON array, or @file to read one (default: a single "default" pool)`)

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	)
	flag.Parse()
	if *eqtlPhenos < 0 {
		fatal(fmt.Errorf("-eqtl-phenos %d: must be non-negative (0 disables /v1/eqtl)", *eqtlPhenos))
	}
	if err := run.Check(); err != nil {
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
	ds, err := run.Dataset()
	if err != nil {
		fatal(err)
	}
	cfg := run.Config()
	cfg.Scheduler = server.SchedulerConfig(schedMode, poolCfgs)
	ctx, err := rdd.New(cfg)
	if err != nil {
		fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "input")
	if err != nil {
		fatal(err)
	}
	analysis, err := core.NewAnalysis(ctx, paths, run.Options())
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
		if scfg.EQTL, err = run.OpenEQTL(ctx, paths.Genotypes, "input/phenomatrix.txt", analysis.Patients(), *eqtlPhenos); err != nil {
			fatal(err)
		}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparkserved:", err)
	os.Exit(1)
}
