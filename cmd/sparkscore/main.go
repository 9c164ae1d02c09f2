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
	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

func main() {
	var (
		dir      = flag.String("dir", "", "directory with genotypes.txt/phenotype.txt/weights.txt/snpsets.txt")
		generate = flag.Bool("generate", false, "generate a synthetic dataset instead of reading -dir")
		patients = flag.Int("patients", 1000, "patients for -generate")
		snps     = flag.Int("snps", 10000, "SNPs for -generate")
		sets     = flag.Int("sets", 100, "SNP-sets for -generate")

		method     = flag.String("method", "mc", `resampling method: "mc" (Monte Carlo) or "perm" (permutation)`)
		iterations = flag.Int("iterations", 1000, "resampling iterations (B)")
		family     = flag.String("family", "cox", `score family: "cox", "gaussian", or "binomial"`)
		noCache    = flag.Bool("no-cache", false, "disable caching of the packed genotype RDD")
		chaos      = flag.Bool("chaos", false, "inject task crashes, fetch failures, and stragglers; results are bitwise unchanged")
		setStat    = flag.String("set-stat", "skat", `SNP-set statistic: "skat" or "burden"`)
		betaWts    = flag.Bool("beta-weights", false, "replace input weights with Beta(MAF;1,25) weights (Wu et al. 2011)")
		seed       = flag.Uint64("seed", 1, "seed for data generation and resampling")

		nodes    = flag.Int("nodes", 6, "simulated cluster nodes (m3.2xlarge)")
		execs    = flag.Int("executors-per-node", 2, "YARN containers per node")
		cores    = flag.Int("cores", 4, "cores per container")
		mem      = flag.Float64("mem", 10, "memory per container (GiB)")
		memCap   = flag.Int64("mem-cap-bytes", 0, "absolute per-container memory cap in bytes, overriding -mem (0 = off; squeezes the unified pool so the sort shuffle spills)")
		workers  = flag.Int("workers", 0, "host-side worker goroutines (0 = all CPUs; 1 makes spill points a pure function of the configuration)")
		top      = flag.Int("top", 10, "print the top N SNP-sets by p-value")
		marginal = flag.Bool("marginal", false, "also run the per-SNP asymptotic analysis")
		setAsym  = flag.Bool("asymptotic", false, "also run the per-set asymptotic (Liu) analysis")
		out      = flag.String("out", "", "write the per-set result table (TSV) to this file")

		eqtlMode   = flag.Bool("eqtl", false, "run the all-pairs eQTL engine instead of the SKAT pipeline")
		eqtlPhenos = flag.Int("eqtl-phenos", 32, "expression phenotypes to generate for -eqtl")
		eqtlTop    = flag.Int("eqtl-top", 100, "most-significant pairs to keep for -eqtl")

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
	if *eqtlTop < 1 {
		fatal(fmt.Errorf("-eqtl-top %d: must be at least 1", *eqtlTop))
	}
	if *memCap < 0 {
		fatal(fmt.Errorf("-mem-cap-bytes %d: must be non-negative", *memCap))
	}
	if *eqtlMode && *eqtlPhenos < 1 {
		fatal(fmt.Errorf("-eqtl-phenos %d: must be at least 1 with -eqtl", *eqtlPhenos))
	}

	ds, err := loadDataset(*dir, *generate, *patients, *snps, *sets, *seed)
	if err != nil {
		fatal(err)
	}
	if *betaWts {
		if ds.Weights, err = stats.BetaMAFWeights(ds.Genotypes, 1, 25); err != nil {
			fatal(err)
		}
	}
	var listeners []rdd.Listener
	var eventLog *rdd.EventLogWriter
	var eventFile *os.File
	if *eventsOut != "" {
		eventFile, err = os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		eventLog = rdd.NewEventLogWriter(eventFile)
		listeners = append(listeners, eventLog)
	}
	if *progress {
		listeners = append(listeners, &rdd.ConsoleProgressListener{})
	}
	memGiB := *mem
	if *memCap > 0 {
		memGiB = float64(*memCap) / float64(1<<30)
	}
	var faults rdd.FaultProfile
	if *chaos {
		faults = rdd.FaultProfile{TaskCrashProb: 0.05, FetchFailureProb: 0.05, StragglerProb: 0.05}
	}
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes: *nodes, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: *execs, CoresPerExecutor: *cores, MemPerExecutorGiB: memGiB,
		},
		Seed:      *seed,
		Faults:    faults,
		Workers:   *workers,
		Listeners: listeners,
	})
	if err != nil {
		fatal(err)
	}
	if *eqtlMode {
		err := runEQTL(ctx, ds, eqtlOptions{
			phenos: *eqtlPhenos, topK: *eqtlTop,
			seed: *seed, top: *top, out: *out,
		})
		if err != nil {
			fatal(err)
		}
		finishRun(ctx, eventLog, eventFile, *eventsOut)
		return
	}
	paths, err := core.StageDataset(ctx, ds, "input")
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Family: *family, SetStatistic: *setStat, Seed: *seed}
	if *noCache {
		opts = opts.WithoutCache()
	}
	analysis, err := core.NewAnalysis(ctx, paths, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("sparkscore: %d patients, %d SNPs, %d SNP-sets on %d nodes (%dx%d cores, %g GiB)\n",
		ds.Phenotype.Patients(), ds.Genotypes.SNPs(), len(ds.SNPSets),
		*nodes, *execs, *cores, memGiB)

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
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := core.WriteResult(f, res); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
	if *setAsym {
		if err := printSetAsymptotic(analysis, *top); err != nil {
			fatal(err)
		}
	}
	if *marginal {
		if err := printMarginal(analysis, *top); err != nil {
			fatal(err)
		}
	}
	finishRun(ctx, eventLog, eventFile, *eventsOut)
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

type eqtlOptions struct {
	phenos int
	topK   int
	seed   uint64
	top    int
	out    string
}

// runEQTL stages the dataset and beside it a generated expression matrix,
// runs the all-pairs cross, prints the most significant pairs, and writes the
// deterministic report when -out is set.
func runEQTL(ctx *rdd.Context, ds *data.Dataset, o eqtlOptions) error {
	expr := gen.ExpressionMatrix(gen.Config{Patients: ds.Phenotype.Patients()}, rng.New(o.seed), o.phenos)
	paths, err := core.StageDataset(ctx, ds, "eqtl")
	if err != nil {
		return err
	}
	const phenoMatrixPath = "eqtl/phenomatrix.txt"
	if err := assoc.StagePhenotypes(ctx, phenoMatrixPath, expr); err != nil {
		return err
	}
	a, err := assoc.NewAnalysis(ctx, paths.Genotypes, phenoMatrixPath, assoc.Config{TopK: o.topK})
	if err != nil {
		return err
	}
	fmt.Printf("all-pairs: %d SNPs × %d phenotypes\n", ds.Genotypes.SNPs(), a.Phenos())
	res, err := a.Run()
	if err != nil {
		return err
	}
	fmt.Printf("\n%d pair tests; BH FDR at α=%g: threshold %.4g, %d discoveries\n",
		res.Tested, res.FDR.Alpha, res.FDR.Threshold, res.FDR.Discoveries)
	top := o.top
	if top > len(res.TopK) {
		top = len(res.TopK)
	}
	fmt.Printf("top %d pairs:\n", top)
	fmt.Printf("%-8s %-8s %12s %12s %10s\n", "snp", "pheno", "score", "variance", "p-value")
	for _, p := range res.TopK[:top] {
		fmt.Printf("%-8d %-8d %12.4f %12.4f %10.4g\n", p.SNP, p.Pheno, p.Score, p.Variance, p.PValue)
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := assoc.WriteReport(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", o.out)
	}
	return nil
}

func loadDataset(dir string, generate bool, patients, snps, sets int, seed uint64) (*data.Dataset, error) {
	if generate || dir == "" {
		return gen.Generate(gen.Config{Patients: patients, SNPs: snps, SNPSets: sets}, seed)
	}
	return data.ReadDataset(os.DirFS(dir))
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

func printSetAsymptotic(a *core.Analysis, top int) error {
	results, err := a.SetAsymptotic()
	if err != nil {
		return err
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].PValue != results[j].PValue {
			return results[i].PValue < results[j].PValue
		}
		return results[i].Set < results[j].Set
	})
	if top > len(results) {
		top = len(results)
	}
	fmt.Printf("\ntop %d SNP-sets by asymptotic (Liu) test:\n", top)
	fmt.Printf("%-16s %6s %14s %10s\n", "snp-set", "snps", "observed", "p-value")
	for _, r := range results[:top] {
		fmt.Printf("%-16s %6d %14.4f %10.4g\n", r.Name, r.SNPs, r.Observed, r.PValue)
	}
	return nil
}

func printMarginal(a *core.Analysis, top int) error {
	results, err := a.MarginalAsymptotic()
	if err != nil {
		return err
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].PValue != results[j].PValue {
			return results[i].PValue < results[j].PValue
		}
		return results[i].SNP < results[j].SNP
	})
	if top > len(results) {
		top = len(results)
	}
	fmt.Printf("\ntop %d SNPs by asymptotic score test:\n", top)
	fmt.Printf("%-8s %12s %12s %10s\n", "snp", "score", "variance", "p-value")
	for _, r := range results[:top] {
		fmt.Printf("%-8d %12.4f %12.4f %10.4g\n", r.SNP, r.Score, r.Variance, r.PValue)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparkscore:", err)
	os.Exit(1)
}
