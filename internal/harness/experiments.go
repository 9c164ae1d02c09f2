// Experiment definitions, one per paper artifact. Canonical experiments own
// the measurement; table-only ids (tab2, tab3, ...) alias the figure whose
// sweep produces their numbers, so each configuration is measured once.

package harness

import (
	"fmt"
	"io"

	"sparkscore/internal/cluster"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

// The paper's iteration axes.
var (
	expAIterPerm = []int{0, 2, 4, 8, 16}
	expAIterMC   = []int{0, 2, 4, 8, 16, 100, 1000, 10000}
	expBIterAll  = []int{0, 10, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 10000}
	expBIter1M   = []int{0, 10, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
)

// tunedContainers is the container layout for Experiments A and B, where the
// paper reports well-behaved caching: 2 executors per node with 10 GiB each.
func tunedContainers(p Params) Params {
	p.ExecutorsPerNode, p.CoresPerExecutor, p.MemPerExecutorGiB = 2, 4, 10
	return p
}

// defaultContainers is the layout for the strong-scaling runs: the Spark 1.x
// out-of-the-box executor memory of 1 GiB, under which the 7.45 GiB RDD U that
// Algorithm 3 used to cache did not fit in six nodes' aggregate storage — our
// model of why the paper's 6-node runs are two orders of magnitude slower. The
// 2-bit packed matrix cached now is 32× smaller and fits (see StarveCache).
func defaultContainers(p Params) Params {
	p.ExecutorsPerNode, p.CoresPerExecutor, p.MemPerExecutorGiB = 2, 4, 1
	return p
}

// StarveCache returns p with executor memory capped in proportion to the
// run's cached working set — measured: the bytes one cached Monte Carlo job
// of the configuration reads from the block cache on roomy executors — at the
// ratio Figure 6's six nodes stood in to RDD U at the paper's literal
// settings, 12 × 1 GiB of executor memory against 7.45 GiB to cache. Storage
// is a fraction of that memory, so part of the matrix cannot stay resident.
func (h *Harness) StarveCache(p Params) (Params, error) {
	roomy := tunedContainers(p)
	roomy.Method, roomy.Cache, roomy.Iterations = "mc", true, 1
	ctx, _, err := h.run(roomy, rdd.FaultProfile{})
	if err != nil {
		return p, fmt.Errorf("harness: measuring the cached working set: %w", err)
	}
	jobs := ctx.Jobs()
	workingSet := jobs[len(jobs)-1].CacheReadBytes
	if workingSet <= 0 {
		return p, fmt.Errorf("harness: the cached Monte Carlo job read nothing from the block cache")
	}
	p.MemCapBytes = int64(12 / 7.45 * float64(workingSet) / float64(p.Nodes*p.ExecutorsPerNode))
	return p, nil
}

func paramsTable(title string, rows ...Params) *metrics.Table {
	t := metrics.NewTable(title,
		"patients", "snps", "snp-sets", "avg-snps/set", "nodes", "containers", "mem/exec(GiB)")
	for _, p := range rows {
		containers := fmt.Sprintf("%dx%d cores", p.ExecutorsPerNode, p.CoresPerExecutor)
		if p.TotalExecutors > 0 {
			containers = fmt.Sprintf("%d total x%d cores", p.TotalExecutors, p.CoresPerExecutor)
		}
		t.AddRowf(p.Patients, p.SNPs, p.SNPSets, p.SNPs/p.SNPSets, p.Nodes, containers, p.MemPerExecutorGiB)
	}
	return t
}

// Experiments returns the canonical experiment list in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "tab1", Title: "Table I: m3.2xlarge instances", Run: runTab1},
		{ID: "fig2", Title: "Figure 2 + Tables II-III: scalability, Monte Carlo vs permutation", Run: runFig2},
		{ID: "fig3", Title: "Figure 3: sensitivity, iterations x SNPs constant", Run: runFig3},
		{ID: "fig4", Title: "Figure 4 + Tables IV-V: Monte Carlo caching, 10K SNPs", Run: runFig4},
		{ID: "fig5", Title: "Figure 5: Monte Carlo caching, 1M SNPs", Run: runFig5},
		{ID: "fig6", Title: "Figure 6 + Table VI: strong scaling, 1M SNPs", Run: runFig6},
		{ID: "fig7", Title: "Figure 7 + Tables VII-VIII: container auto-tuning, 1M SNPs", Run: runFig7},
		{ID: "chaos", Title: "Chaos: lineage recovery under node loss and task failures", Run: runChaos},
	}
}

// aliases maps table-only artifact ids to the experiment that prints them.
var aliases = map[string]string{
	"tab2": "fig2", "tab3": "fig2",
	"tab4": "fig4", "tab5": "fig4",
	"tab6": "fig6",
	"tab7": "fig7", "tab8": "fig7",
}

// Resolve maps any artifact id (figure or table) to its canonical experiment.
func Resolve(id string) (Experiment, bool) {
	if canonical, ok := aliases[id]; ok {
		id = canonical
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTab1(h *Harness, w io.Writer) error {
	spec := cluster.M3TwoXLarge
	t := metrics.NewTable("Table I: Amazon EC2 instance profile",
		"instance", "vCPU", "mem(GiB)", "storage(GB)")
	t.AddRowf(spec.Name, spec.VCPUs, spec.MemGiB, spec.StorageGB)
	t.Fprint(w)
	return nil
}

// runFig2 is Experiment A: 100K SNPs on 6 nodes, permutation vs Monte Carlo
// over the iteration axis. The paper's Table III is the same points as mean
// and standard deviation over repetitions; here a repetition reproduces the
// run digit for digit, so the table is the figure's values and the deviation
// is zero by construction.
func runFig2(h *Harness, w io.Writer) error {
	base := tunedContainers(Params{
		Patients: 1000, SNPs: 100000, SNPSets: 1000, Nodes: 6, Cache: true,
	})
	paramsTable("Table II: input parameters of Experiment A", base).Fprint(w)
	fmt.Fprintln(w)

	mcBase := base
	mcBase.Method = "mc"
	mc, err := h.sweep(mcBase, expAIterMC)
	if err != nil {
		return err
	}
	permBase := base
	permBase.Method = "perm"
	perm, err := h.sweep(permBase, expAIterPerm)
	if err != nil {
		return err
	}

	fig := metrics.NewTable(fmt.Sprintf("Figure 2: execution time (sim-s) vs iterations [scale 1/%d]", h.Scale),
		"iterations", "monte-carlo", "permutation")
	for _, it := range expAIterMC {
		permCell := cell(perm, it, it <= 16)
		fig.AddRow(fmt.Sprint(it), cell(mc, it, true), permCell)
	}
	fig.Fprint(w)
	fmt.Fprintln(w)

	fig.Title = "Table III: runtimes (sim-s; every repetition identical)"
	fig.Fprint(w)
	return nil
}

// runFig3 holds iterations x SNPs constant across three configurations.
func runFig3(h *Harness, w io.Writer) error {
	configs := []struct {
		iters, snps int
	}{
		{1000, 10000},
		{100, 100000},
		{10, 1000000},
	}
	t := metrics.NewTable(fmt.Sprintf("Figure 3: sensitivity, iterations x SNPs = 10^7 [scale 1/%d]", h.Scale),
		"iterations x snps", "monte-carlo", "permutation")
	for _, cfg := range configs {
		base := tunedContainers(Params{
			Patients: 1000, SNPs: cfg.snps, SNPSets: 1000, Nodes: 6, Cache: true,
		})
		row := []string{fmt.Sprintf("%d x %d", cfg.iters, cfg.snps)}
		for _, method := range []string{"mc", "perm"} {
			p := base
			p.Method = method
			s, err := h.sweep(p, []int{cfg.iters})
			if err != nil {
				return err
			}
			row = append(row, cell(s, cfg.iters, true))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return nil
}

// runFig4 is Experiment B at 10K SNPs: Monte Carlo with and without caching;
// Table V is the figure's values, as Table III is Figure 2's.
func runFig4(h *Harness, w io.Writer) error {
	base := tunedContainers(Params{
		Patients: 1000, SNPs: 10000, SNPSets: 1000, Nodes: 18, Method: "mc",
	})
	big := base
	big.SNPs = 1000000
	paramsTable("Table IV: input parameters of Experiment B", base, big).Fprint(w)
	fmt.Fprintln(w)

	cached := base
	cached.Cache = true
	withCache, err := h.sweep(cached, expBIterAll)
	if err != nil {
		return err
	}
	uncached := base
	uncached.Cache = false
	// The paper stops the uncached runs at 200 iterations (cost), N/A beyond.
	noCache, err := h.sweep(uncached, []int{0, 10, 100, 200})
	if err != nil {
		return err
	}

	fig := metrics.NewTable(fmt.Sprintf("Figure 4: Monte Carlo w/ and w/o caching, 10K SNPs (sim-s) [scale 1/%d]", h.Scale),
		"iterations", "with-cache", "without-cache")
	for _, it := range expBIterAll {
		fig.AddRow(fmt.Sprint(it), cell(withCache, it, true), cell(noCache, it, it <= 200))
	}
	fig.Fprint(w)
	fmt.Fprintln(w)
	fig.Title = "Table V: runtimes (sim-s; every repetition identical)"
	fig.Fprint(w)
	return nil
}

// runFig5 is Experiment B at 1M SNPs.
func runFig5(h *Harness, w io.Writer) error {
	base := tunedContainers(Params{
		Patients: 1000, SNPs: 1000000, SNPSets: 1000, Nodes: 18, Method: "mc",
	})
	cached := base
	cached.Cache = true
	withCache, err := h.sweep(cached, expBIter1M)
	if err != nil {
		return err
	}
	uncached := base
	uncached.Cache = false
	// The paper shows uncached points only at 0 and 10 iterations for 1M SNPs.
	noCache, err := h.sweep(uncached, []int{0, 10})
	if err != nil {
		return err
	}
	fig := metrics.NewTable(fmt.Sprintf("Figure 5: Monte Carlo w/ and w/o caching, 1M SNPs (sim-s) [scale 1/%d]", h.Scale),
		"iterations", "with-cache", "without-cache")
	for _, it := range expBIter1M {
		fig.AddRow(fmt.Sprint(it), cell(withCache, it, true), cell(noCache, it, it <= 10))
	}
	fig.Fprint(w)
	return nil
}

// runFig6 is the strong-scaling investigation: 1M SNPs on 6, 12, and 18
// nodes under the default (untuned) 1 GiB executors — which the six-node row
// keeps only in proportion to what is cached (StarveCache; Table VI prints
// the literal setting).
func runFig6(h *Harness, w io.Writer) error {
	nodes := []int{6, 12, 18}
	var rows []Params
	for _, n := range nodes {
		rows = append(rows, defaultContainers(Params{
			Patients: 1000, SNPs: 1000000, SNPSets: 1000, Nodes: n,
		}))
	}
	paramsTable("Table VI: input parameters of the strong-scaling investigation", rows...).Fprint(w)
	fmt.Fprintln(w)

	// The paper's axis is 0, 10, 20 — one resampling job per iteration there,
	// one job for the lot here (64 replicates a job). 640 and 1280 are the
	// same 10 and 20 jobs, where the 6-node recomputation shows as it did.
	iters := []int{0, 10, 20, 640, 1280}
	t := metrics.NewTable(fmt.Sprintf("Figure 6: strong scaling, 1M SNPs (sim-s) [scale 1/%d]", h.Scale),
		"iterations", "6-nodes", "12-nodes", "18-nodes")
	results := map[int]map[int]float64{}
	for _, p := range rows {
		p.Method, p.Cache = "mc", true
		if p.Nodes == 6 {
			var err error
			if p, err = h.StarveCache(p); err != nil {
				return err
			}
		}
		s, err := h.sweep(p, iters)
		if err != nil {
			return err
		}
		results[p.Nodes] = s
	}
	for _, it := range iters {
		t.AddRow(fmt.Sprint(it),
			cell(results[6], it, true), cell(results[12], it, true), cell(results[18], it, true))
	}
	t.Fprint(w)
	return nil
}

// chaosParams is the chaos experiment's measured configuration: Experiment
// A's setup (scale-100 by default) at 1024 iterations. What the experiment
// needs is resampling *jobs* for faults to land in — 16 of them, as when a
// replicate was a job; Monte Carlo now batches 64 replicates per job, so 16
// jobs are 16 × 64 iterations.
func chaosParams(h *Harness) Params {
	p := tunedContainers(Params{
		Patients: 1000, SNPs: 100000, SNPSets: 1000, Nodes: 6, Cache: true,
		Method: "mc", Iterations: 16 * 64,
	})
	if h.MaxIterations > 0 && p.Iterations > h.MaxIterations {
		p.Iterations = h.MaxIterations
	}
	return p
}

// chaosFaults is its fault profile: task crashes, fetch failures, and a
// whole machine lost mid-analysis.
func chaosFaults() rdd.FaultProfile {
	return rdd.FaultProfile{
		TaskCrashProb:    0.02,
		FetchFailureProb: 0.02,
		NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 20}},
	}
}

// runChaos exercises the paper's fault-tolerance claim (Section II: "failed
// tasks are automatically recomputed from the lineage") as a measurement:
// Experiment A's configuration runs fault-free and then under a fault profile
// that crashes tasks, loses shuffle fetches, and kills a whole machine
// mid-analysis. The inference must be numerically identical; the table
// reports what the recovery cost in simulated time.
func runChaos(h *Harness, w io.Writer) error {
	p, faults := chaosParams(h), chaosFaults()
	first, err := h.MeasureRecovery(p, faults)
	if err != nil {
		return err
	}
	second, err := h.MeasureRecovery(p, faults)
	if err != nil {
		return err
	}

	t := metrics.NewTable("Chaos run: node 0 lost mid-analysis + 2% task crashes + 2% fetch failures",
		"metric", "value")
	t.AddRow("fault-free runtime (sim-s)", metrics.FormatSeconds(first.CleanSeconds))
	t.AddRow("chaos runtime (sim-s)", metrics.FormatSeconds(first.ChaosSeconds))
	t.AddRowf("task retries", first.Stats.TaskRetries)
	t.AddRowf("stage re-attempts", first.Stats.StageAttempts)
	t.AddRowf("recomputed partitions", first.Stats.RecomputedPartitions)
	t.AddRow("recovery share of runtime", metrics.FormatPercent(first.Stats.Overhead()))
	t.AddRowf("results identical to fault-free", first.ResultsMatch)
	t.AddRowf("replay reproducible (same seed)", first.Fingerprint == second.Fingerprint)
	t.Fprint(w)
	if !first.ResultsMatch {
		return fmt.Errorf("chaos: inference results diverged from the fault-free run")
	}
	if first.Fingerprint != second.Fingerprint {
		return fmt.Errorf("chaos: identical seed produced different recovery traces")
	}
	return nil
}

// runFig7 is the container auto-tuning investigation: 42/84/126 containers
// on 36 nodes (Table VIII layouts), all with 252 total cores.
func runFig7(h *Harness, w io.Writer) error {
	layouts := []Params{
		{Patients: 1000, SNPs: 1000000, SNPSets: 1000, Nodes: 36,
			TotalExecutors: 42, CoresPerExecutor: 6, MemPerExecutorGiB: 10},
		{Patients: 1000, SNPs: 1000000, SNPSets: 1000, Nodes: 36,
			TotalExecutors: 84, CoresPerExecutor: 3, MemPerExecutorGiB: 10},
		{Patients: 1000, SNPs: 1000000, SNPSets: 1000, Nodes: 36,
			TotalExecutors: 126, CoresPerExecutor: 2, MemPerExecutorGiB: 8},
	}
	paramsTable("Tables VII-VIII: auto-tuning inputs (36 nodes)", layouts...).Fprint(w)
	fmt.Fprintln(w)

	iters := []int{0, 10, 100}
	t := metrics.NewTable(fmt.Sprintf("Figure 7: Spark run-time properties on YARN, 1M SNPs (sim-s) [scale 1/%d]", h.Scale),
		"iterations", "42-containers", "84-containers", "126-containers")
	results := make([]map[int]float64, len(layouts))
	for i, p := range layouts {
		p.Method, p.Cache = "mc", true
		s, err := h.sweep(p, iters)
		if err != nil {
			return err
		}
		results[i] = s
	}
	for _, it := range iters {
		t.AddRow(fmt.Sprint(it),
			cell(results[0], it, true), cell(results[1], it, true), cell(results[2], it, true))
	}
	t.Fprint(w)
	return nil
}
