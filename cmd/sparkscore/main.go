// Command sparkscore runs a complete SparkScore analysis on the simulated
// cluster: it stages the input files onto the HDFS stand-in, computes the
// observed SKAT statistics, runs the requested resampling method, and prints
// per-set p-values plus the simulated cluster runtime.
//
// Inputs come either from files produced by datagen:
//
//	sparkscore -dir ./dataset -method mc -iterations 1000
//
// or are generated in-process:
//
//	sparkscore -generate -patients 1000 -snps 10000 -sets 100 -method perm -iterations 16
//
// With -eqtl it instead runs the all-pairs association engine: -eqtl-phenos
// generated expression phenotypes crossed with every SNP, reduced to a
// streaming top-K plus a histogram-sketch Benjamini–Hochberg FDR summary. The
// -out report is deterministic (assoc.WriteReport), so two runs — with and
// without -chaos, on any cluster shape — can be compared byte for byte:
//
//	sparkscore -generate -eqtl -eqtl-phenos 32 -out clean.tsv
//	sparkscore -generate -eqtl -eqtl-phenos 32 -chaos -nodes 3 -out chaos.tsv
//	cmp clean.tsv chaos.tsv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sparkscore/internal/assoc"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/job"
	"sparkscore/internal/rdd"
	"sparkscore/internal/stats"
)

func main() {
	run := job.Flags(flag.CommandLine)
	var (
		method     = flag.String("method", "mc", `resampling method: "mc" (Monte Carlo) or "perm" (permutation)`)
		iterations = flag.Int("iterations", 1000, "resampling iterations (B)")
		noCache    = flag.Bool("no-cache", false, "disable caching of the packed genotype RDD")
		chaos      = flag.Bool("chaos", false, "inject task crashes, fetch failures, and stragglers; results are bitwise unchanged")
		betaWts    = flag.Bool("beta-weights", false, "replace input weights with Beta(MAF;1,25) weights (Wu et al. 2011)")

		memCap   = flag.Int64("mem-cap-bytes", 0, "absolute per-container memory cap in bytes, overriding -mem (0 = off; squeezes the unified pool so the sort shuffle spills)")
		workers  = flag.Int("workers", 0, "host-side worker goroutines (0 = all CPUs; 1 makes spill points a pure function of the configuration)")
		top      = flag.Int("top", 10, "print the top N SNP-sets by p-value")
		marginal = flag.Bool("marginal", false, "also run the per-SNP asymptotic analysis")
		setAsym  = flag.Bool("asymptotic", false, "also run the per-set asymptotic (Liu) analysis")
		out      = flag.String("out", "", "write the per-set result table (TSV) to this file")

		eqtlMode   = flag.Bool("eqtl", false, "run the all-pairs eQTL engine instead of the SKAT pipeline")
		eqtlPhenos = flag.Int("eqtl-phenos", 32, "expression phenotypes to generate for -eqtl")

		eventsOut = flag.String("events", "", "write a JSONL event log to this file (render it, or its Chrome-trace timeline, with sparkui)")
		progress  = flag.Bool("progress", false, "print job/stage/recovery progress as the analysis runs")
	)
	flag.Parse()
	if *method != "mc" && *method != "perm" {
		fatal(fmt.Errorf(`-method %q: must be "mc" or "perm"`, *method))
	}
	if *top < 0 {
		fatal(fmt.Errorf("-top %d: must be non-negative", *top))
	}
	if err := run.Check(); err != nil {
		fatal(err)
	}
	if *memCap < 0 {
		fatal(fmt.Errorf("-mem-cap-bytes %d: must be non-negative", *memCap))
	}
	if *eqtlMode {
		if *eqtlPhenos < 1 {
			fatal(fmt.Errorf("-eqtl-phenos %d: must be at least 1 with -eqtl", *eqtlPhenos))
		}
		flag.Visit(func(f *flag.Flag) {
			if eqtlUnread[f.Name] {
				fatal(fmt.Errorf("-%s: not read with -eqtl", f.Name))
			}
		})
	}

	ds, err := run.Dataset()
	if err != nil {
		fatal(err)
	}
	if *betaWts {
		if ds.Weights, err = stats.BetaMAFWeights(ds.Genotypes, 1, 25); err != nil {
			fatal(err)
		}
	}
	cfg := run.Config()
	var eventLog *rdd.EventLogWriter
	var eventFile *os.File
	if *eventsOut != "" {
		eventFile, err = os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		eventLog = rdd.NewEventLogWriter(eventFile)
		cfg.Listeners = append(cfg.Listeners, eventLog)
	}
	if *progress {
		cfg.Listeners = append(cfg.Listeners, &rdd.ConsoleProgressListener{})
	}
	if *memCap > 0 {
		cfg.Cluster.MemPerExecutorGiB = float64(*memCap) / float64(1<<30)
	}
	if *chaos {
		cfg.Faults = rdd.FaultProfile{TaskCrashProb: 0.05, FetchFailureProb: 0.05, StragglerProb: 0.05}
	}
	cfg.Workers = *workers
	ctx, err := rdd.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *eqtlMode {
		runEQTL(ctx, run, ds, *eqtlPhenos, *top, *out)
		finishRun(ctx, eventLog, eventFile, *eventsOut)
		return
	}
	paths, err := core.StageDataset(ctx, ds, "input")
	if err != nil {
		fatal(err)
	}
	opts := run.Options()
	if *noCache {
		opts = opts.WithoutCache()
	}
	analysis, err := core.NewAnalysis(ctx, paths, opts)
	if err != nil {
		fatal(err)
	}

	c := cfg.Cluster
	fmt.Printf("sparkscore: %d patients, %d SNPs, %d SNP-sets on %d nodes (%dx%d cores, %g GiB)\n",
		ds.Phenotype.Patients(), ds.Genotypes.SNPs(), len(ds.SNPSets),
		c.Nodes, c.ExecutorsPerNode, c.CoresPerExecutor, c.MemPerExecutorGiB)

	var res *core.Result
	switch *method {
	case "mc":
		res, err = analysis.MonteCarlo(*iterations)
	case "perm":
		res, err = analysis.Permutation(*iterations)
	}
	if err != nil {
		fatal(err)
	}

	printResult(os.Stdout, res, *top)
	writeReport(*out, func(w io.Writer) error { return core.WriteResult(w, res) })
	if *setAsym {
		printSetAsymptotic(analysis, *top)
	}
	if *marginal {
		printMarginal(analysis, *top)
	}
	finishRun(ctx, eventLog, eventFile, *eventsOut)
}

// eqtlUnread names the flags the all-pairs engine does not read — it scores
// the Gaussian family over generated phenotypes and resamples nothing — so
// -eqtl refuses them when they are set rather than ignore them.
var eqtlUnread = map[string]bool{
	"method": true, "iterations": true, "family": true, "no-cache": true,
	"set-stat": true, "beta-weights": true, "marginal": true, "asymptotic": true,
}

// writeReport writes a report to path through write, when path is set.
func writeReport(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

// finishRun prints the simulated-cluster accounting and flushes the optional
// event log — the shared tail of every sparkscore mode.
func finishRun(ctx *rdd.Context, eventLog *rdd.EventLogWriter, eventFile *os.File, eventsOut string) {
	fmt.Printf("\nsimulated cluster time: %.1f s over %d jobs\n", ctx.VirtualTime(), ctx.JobCount())
	var spilledBytes int64
	var spillCount int
	for _, m := range ctx.Jobs() {
		spilledBytes += m.SpilledBytes
		spillCount += m.SpillCount
	}
	if spillCount > 0 {
		fmt.Printf("shuffle spills: %d sorted runs, %d bytes\n", spillCount, spilledBytes)
	}

	if eventLog != nil {
		if err := eventLog.Close(); err != nil {
			fatal(err)
		}
		if err := eventFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote event log %s (render with: sparkui -log %s)\n", eventsOut, eventsOut)
	}
}

// runEQTL stages the dataset and beside it a generated expression matrix,
// runs the all-pairs cross, prints the most significant pairs, and writes the
// deterministic report when -out is set.
func runEQTL(ctx *rdd.Context, run *job.Run, ds *data.Dataset, phenos, top int, out string) {
	paths, err := core.StageDataset(ctx, ds, "eqtl")
	if err != nil {
		fatal(err)
	}
	a, err := run.OpenEQTL(ctx, paths.Genotypes, "eqtl/phenomatrix.txt", ds.Phenotype.Patients(), phenos)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("all-pairs: %d SNPs × %d phenotypes\n", ds.Genotypes.SNPs(), a.Phenos())
	res, err := a.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%d pair tests; BH FDR at α=%g: threshold %.4g, %d discoveries\n",
		res.Tested, res.FDR.Alpha, res.FDR.Threshold, res.FDR.Discoveries)
	top = min(top, len(res.TopK))
	fmt.Printf("top %d pairs:\n", top)
	fmt.Printf("%-8s %-8s %12s %12s %10s\n", "snp", "pheno", "score", "variance", "p-value")
	for _, p := range res.TopK[:top] {
		fmt.Printf("%-8d %-8d %12.4f %12.4f %10.4g\n", p.SNP, p.Pheno, p.Score, p.Variance, p.PValue)
	}
	writeReport(out, func(w io.Writer) error { return assoc.WriteReport(w, res) })
}

// printResult writes the top sets of res, by p-value when it has them and by
// observed statistic when it does not; ties keep set order.
func printResult(w io.Writer, res *core.Result, top int) {
	type row struct {
		name string
		s0   float64
		p    float64
	}
	rows := make([]row, len(res.Observed))
	for k := range rows {
		rows[k] = row{name: res.Sets[k].Name, s0: res.Observed[k]}
		if res.PValues != nil {
			rows[k].p = res.PValues[k]
		}
	}
	// Monte Carlo and permutation p-values are (c+1)/(B+1): ties are common,
	// and which tied set makes the top must not be up to the sort.
	if res.PValues != nil {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].p < rows[j].p })
	} else {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].s0 > rows[j].s0 })
	}
	if top > len(rows) {
		top = len(rows)
	}
	fmt.Fprintf(w, "\n%d resampling iterations; top %d SNP-sets:\n", res.Iterations, top)
	fmt.Fprintf(w, "%-16s %14s %10s\n", "snp-set", "observed-skat", "p-value")
	for _, r := range rows[:top] {
		p := "n/a"
		if res.PValues != nil {
			p = fmt.Sprintf("%.4g", r.p)
		}
		fmt.Fprintf(w, "%-16s %14.4f %10s\n", r.name, r.s0, p)
	}
}

func printSetAsymptotic(a *core.Analysis, top int) {
	results, err := a.SetAsymptotic()
	if err != nil {
		fatal(err)
	}
	core.RankSetAsymptotic(results)
	top = min(top, len(results))
	fmt.Printf("\ntop %d SNP-sets by asymptotic (Liu) test:\n", top)
	fmt.Printf("%-16s %6s %14s %10s\n", "snp-set", "snps", "observed", "p-value")
	for _, r := range results[:top] {
		fmt.Printf("%-16s %6d %14.4f %10.4g\n", r.Name, r.SNPs, r.Observed, r.PValue)
	}
}

func printMarginal(a *core.Analysis, top int) {
	results, err := a.MarginalAsymptotic()
	if err != nil {
		fatal(err)
	}
	core.RankMarginal(results)
	top = min(top, len(results))
	fmt.Printf("\ntop %d SNPs by asymptotic score test:\n", top)
	fmt.Printf("%-8s %12s %12s %10s\n", "snp", "score", "variance", "p-value")
	for _, r := range results[:top] {
		fmt.Printf("%-8d %12.4f %12.4f %10.4g\n", r.SNP, r.Score, r.Variance, r.PValue)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparkscore:", err)
	os.Exit(1)
}
