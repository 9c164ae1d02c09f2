// Package harness regenerates every table and figure of the paper's
// evaluation (Section V). Each experiment is registered under the paper's
// artifact id (fig2, tab3, ...) and prints the same rows/series the paper
// reports, measured in simulated cluster seconds.
//
// Because the paper's full inputs are cluster-sized (up to one million SNPs
// on 36 EC2 instances), the harness runs at a configurable Scale: SNP counts,
// HDFS block size, and executor memory are all divided by Scale, which
// preserves every ratio the experiments measure (iterations per second,
// cache versus recompute, working set versus storage capacity) while keeping
// single-machine wall time reasonable. Scale=1 reproduces the paper's exact
// input sizes.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

// Harness carries the run-wide knobs shared by all experiments.
type Harness struct {
	// Scale divides the paper's SNP counts, block size, and executor memory;
	// at least 1 (benchtab refuses less, and defaults to 100).
	Scale int

	// MaxIterations caps the resampling iteration counts attempted; axis
	// points above the cap are reported as "skipped". Zero means no cap.
	MaxIterations int

	// Seed drives data generation and resampling.
	Seed uint64

	// EventLogDir, when set, writes one JSONL event log per measured run
	// into the directory, named run-NNN-<method><iterations>.jsonl in
	// execution order; cmd/sparkui renders its tables and, with -trace, its
	// Chrome-trace timeline.
	EventLogDir string

	// extraListeners are attached to every run in addition to the
	// EventLogDir log; the chaos determinism test uses it to record each
	// run's event log.
	extraListeners []rdd.Listener

	// workers is rdd.Config.Workers for every run; zero leaves the engine
	// default. The determinism tests set it to prove the chaos replay does
	// not depend on it.
	workers int

	datasets map[dsKey]*data.Dataset
	runSeq   int
}

type dsKey struct {
	patients, snps, sets int
}

// Params describes one measured configuration in the paper's full-scale
// terms; the harness applies Scale internally.
type Params struct {
	Patients int
	SNPs     int // full-scale count; divided by Scale
	SNPSets  int

	Nodes             int
	ExecutorsPerNode  int
	CoresPerExecutor  int
	MemPerExecutorGiB float64 // full-scale; divided by Scale
	TotalExecutors    int

	Method     string // "mc" or "perm"
	Family     string // core.Options.Family; "" = cox
	Cache      bool
	DiskSpill  bool // persist the cached genotype blocks at MEMORY_AND_DISK instead of MEMORY_ONLY
	Iterations int

	// MemCapBytes, when positive, overrides the scaled executor memory with
	// an absolute per-executor cap in bytes — StarveCache's squeeze of the
	// strong-scaling runs. Unlike MemPerExecutorGiB it is NOT divided by
	// Scale.
	MemCapBytes int64
}

// scaledSets returns the SNP-set count after scaling (the set count scales
// with the SNP count so the paper's average SNPs-per-set is preserved).
func (h *Harness) scaledSets(p Params) int {
	k := p.SNPSets / h.Scale
	if k < 1 {
		k = 1
	}
	return k
}

// scaledSNPs returns the SNP count after scaling, floored at the scaled set
// count so the generator stays valid.
func (h *Harness) scaledSNPs(p Params) int {
	s := p.SNPs / h.Scale
	if k := h.scaledSets(p); s < k {
		s = k
	}
	return s
}

// dataset returns (and memoises) the synthetic dataset for the scaled
// configuration.
func (h *Harness) dataset(p Params) (*data.Dataset, error) {
	key := dsKey{p.Patients, h.scaledSNPs(p), h.scaledSets(p)}
	if ds, ok := h.datasets[key]; ok {
		return ds, nil
	}
	ds, err := gen.Generate(gen.Config{
		Patients: key.patients,
		SNPs:     key.snps,
		SNPSets:  key.sets,
	}, h.Seed^uint64(key.snps)<<20^uint64(key.patients))
	if err != nil {
		return nil, err
	}
	if h.datasets == nil {
		h.datasets = map[dsKey]*data.Dataset{}
	}
	h.datasets[key] = ds
	return ds, nil
}

// Measure runs one configuration once and returns the simulated seconds of
// the analysis (input staging excluded, as the paper's timings start at job
// submission).
func (h *Harness) Measure(p Params) (float64, error) {
	ctx, _, err := h.run(p, rdd.FaultProfile{})
	if err != nil {
		return 0, err
	}
	return ctx.VirtualTime(), nil
}

// run executes one configuration under the given fault profile and returns
// the driver context (for clocks and recovery accounting) plus the inference
// result.
func (h *Harness) run(p Params, faults rdd.FaultProfile) (_ *rdd.Context, _ *core.Result, err error) {
	ds, err := h.dataset(p)
	if err != nil {
		return nil, nil, err
	}
	observers, finish, err := h.observers(p)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	scale := float64(h.Scale)
	memGiB := p.MemPerExecutorGiB / scale
	if p.MemCapBytes > 0 {
		memGiB = float64(p.MemCapBytes) / float64(1<<30)
	}
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes:             p.Nodes,
			Spec:              cluster.M3TwoXLarge,
			ExecutorsPerNode:  p.ExecutorsPerNode,
			CoresPerExecutor:  p.CoresPerExecutor,
			MemPerExecutorGiB: memGiB,
			TotalExecutors:    p.TotalExecutors,
		},
		DFSBlockSize: int(float64(128<<20) / scale),
		// Scheduling overheads scale with the data so the overhead-to-work
		// ratio of the paper's regime is preserved; at Scale=1 these are the
		// engine defaults.
		SchedOverheadSec: 0.004 / scale,
		StageOverheadSec: 0.05 / scale,
		Seed:             h.Seed,
		Faults:           faults,
		Workers:          h.workers,
		Listeners:        observers,
	})
	if err != nil {
		return nil, nil, err
	}
	paths, err := core.StageDataset(ctx, ds, "bench")
	if err != nil {
		return nil, nil, err
	}
	opts := core.Options{Family: p.Family, Seed: h.Seed, DiskSpill: p.DiskSpill, NoCache: !p.Cache}
	a, err := core.NewAnalysis(ctx, paths, opts)
	if err != nil {
		return nil, nil, err
	}
	ctx.ResetClock()
	var res *core.Result
	switch p.Method {
	case "mc":
		res, err = a.MonteCarlo(p.Iterations)
	case "perm":
		res, err = a.Permutation(p.Iterations)
	default:
		return nil, nil, fmt.Errorf("harness: unknown method %q", p.Method)
	}
	if err != nil {
		return nil, nil, err
	}
	return ctx, res, nil
}

// observers builds the per-run listeners — extraListeners plus, with
// EventLogDir set, an event log named after the run — and returns them with a
// finish function that flushes and closes the log once the run is over (a
// no-op without one).
func (h *Harness) observers(p Params) ([]rdd.Listener, func() error, error) {
	listeners := append([]rdd.Listener(nil), h.extraListeners...)
	if h.EventLogDir == "" {
		return listeners, func() error { return nil }, nil
	}
	h.runSeq++
	f, err := os.Create(filepath.Join(h.EventLogDir, fmt.Sprintf("run-%03d-%s%d.jsonl", h.runSeq, p.Method, p.Iterations)))
	if err != nil {
		return nil, nil, err
	}
	elw := rdd.NewEventLogWriter(f)
	finish := func() error {
		err := elw.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return append(listeners, elw), finish, nil
}

// RecoveryResult is one chaos measurement: the same configuration run
// fault-free and under a fault profile, with the recovery accounting and a
// result comparison (the paper's lineage-recovery claim: failures cost time,
// never correctness).
type RecoveryResult struct {
	CleanSeconds float64 // fault-free simulated runtime
	ChaosSeconds float64 // simulated runtime under the fault profile
	Stats        rdd.RecoveryStats
	ResultsMatch bool   // chaos inference numerically identical to fault-free
	Fingerprint  string // reproducible job fingerprint of the chaos run
}

// MeasureRecovery runs one configuration fault-free and then under the fault
// profile, comparing inference results and collecting recovery accounting.
func (h *Harness) MeasureRecovery(p Params, faults rdd.FaultProfile) (RecoveryResult, error) {
	cleanCtx, cleanRes, err := h.run(p, rdd.FaultProfile{})
	if err != nil {
		return RecoveryResult{}, err
	}
	chaosCtx, chaosRes, err := h.run(p, faults)
	if err != nil {
		return RecoveryResult{}, fmt.Errorf("harness: chaos run: %w", err)
	}
	jobs := chaosCtx.Jobs()
	var fp strings.Builder
	for _, m := range jobs {
		fmt.Fprintf(&fp, "%+v\n", m)
	}
	return RecoveryResult{
		CleanSeconds: cleanCtx.VirtualTime(),
		ChaosSeconds: chaosCtx.VirtualTime(),
		Stats:        rdd.SummarizeRecovery(jobs),
		ResultsMatch: resultsEqual(cleanRes, chaosRes),
		Fingerprint:  fp.String(),
	}, nil
}

// resultsEqual compares two inference results bit for bit: observed
// statistics, exceedance counters, and p-values.
func resultsEqual(a, b *core.Result) bool {
	if len(a.Observed) != len(b.Observed) || len(a.Exceed) != len(b.Exceed) ||
		len(a.PValues) != len(b.PValues) || a.Iterations != b.Iterations {
		return false
	}
	for i := range a.Observed {
		if a.Observed[i] != b.Observed[i] {
			return false
		}
	}
	for i := range a.Exceed {
		if a.Exceed[i] != b.Exceed[i] {
			return false
		}
	}
	for i := range a.PValues {
		if a.PValues[i] != b.PValues[i] {
			return false
		}
	}
	return true
}

// sweep measures the configuration at each iteration count, honouring
// MaxIterations. The result maps iteration count to simulated seconds; capped
// points are absent. One run per point: the clock is a function of the
// configuration, so a repetition would print the same digits.
func (h *Harness) sweep(p Params, iters []int) (map[int]float64, error) {
	out := map[int]float64{}
	for _, it := range iters {
		if h.MaxIterations > 0 && it > h.MaxIterations {
			continue
		}
		q := p
		q.Iterations = it
		v, err := h.Measure(q)
		if err != nil {
			return nil, fmt.Errorf("harness: %s @%d iterations: %w", p.Method, it, err)
		}
		out[it] = v
	}
	return out, nil
}

// cell renders a swept point: its seconds, "skipped" if capped, or "N/A"
// where the paper itself reports N/A.
func cell(swept map[int]float64, it int, measured bool) string {
	if !measured {
		return "N/A"
	}
	v, ok := swept[it]
	if !ok {
		return "skipped"
	}
	return metrics.FormatSeconds(v)
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness, w io.Writer) error
}

// RunAll runs every experiment in order, writing titled sections to w.
func RunAll(h *Harness, w io.Writer) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "== %s ==\n", e.Title)
		if err := e.Run(h, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
