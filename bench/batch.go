// The three batch workloads. Each pass is what one sparkscore invocation does:
// a fresh rdd.Context, the inputs staged onto its DFS, the analysis built, and
// one timed call into the pipeline's entry point (assoc.Analysis.Run,
// core.Analysis.MonteCarlo or core.Analysis.Permutation).

package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sparkscore/internal/assoc"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
)

// setupRepeats is how often set-up runs so that setup_s can be a median.
const setupRepeats = 5

// runOptions are one run's settings.
type runOptions struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string    // where the traced run writes <workload>.trace.json
	log      io.Writer // human-readable progress and tables
}

// batchPipeline adapts one batch workload to the shared pass loop.
type batchPipeline struct {
	layer string // module whose entry point a pass calls: "assoc" or "core"
	ops   int    // operations one pass performs

	// prepare builds the analysis over a staged context (set-up, untimed) and
	// returns the call a pass times.
	prepare func(ctx *rdd.Context) (func() (any, error), error)
	// render writes a result in its deterministic report format.
	render func(w io.Writer, result any) error
	// verify checks a result against references independent of the pipeline.
	verify func(r *runReport, result any)
	// suites runs the layer replays this workload's pipeline enters.
	suites func(e suiteEnv, traced passTimes, result any) error
}

// passSample is what one pass measured.
type passSample struct {
	stageSec float64 // FS.Write of every input file
	setupSec float64 // context + staging + analysis construction
	wallSec  float64 // the timed call
	cpuSec   float64 // process CPU over the timed call
	simSec   float64 // the engine's virtual clock after the pass
	digest   string
	result   any
	jobs     []rdd.JobMetrics
	traced   []*jobRec // nil on untraced passes
}

// passTimes is the listener's view of the traced passes, as medians, for the
// suites that apportion task compute among layers.
type passTimes struct {
	jobTimes
	wallSec      float64 // traced passes
	plainWallSec float64 // untraced passes of the same run
	workers      int
}

func digestOf(render func(io.Writer, any) error, result any) (string, error) {
	var buf bytes.Buffer
	if err := render(&buf, result); err != nil {
		return "", err
	}
	return digestHex(buf.Bytes()), nil
}

// runPass executes one pass; tr is nil for an untraced pass.
func runPass(in *inputs, pipe batchPipeline, tr *tracer, traceID uint64) (passSample, error) {
	var ps passSample
	opts := ctxOptions{}
	if tr != nil {
		opts.listener = tr
	}
	t0 := time.Now()
	ctx, err := newContext(in.seed, opts)
	if err != nil {
		return ps, err
	}
	ps.stageSec = timed(func() { err = in.stage(ctx) })
	if err != nil {
		return ps, err
	}
	call, err := pipe.prepare(ctx)
	if err != nil {
		return ps, err
	}
	ps.setupSec = time.Since(t0).Seconds()

	var start int64
	if tr != nil {
		start = tr.now()
	}
	cpu0 := cpuSeconds()
	t1 := time.Now()
	ps.result, err = call()
	ps.wallSec = time.Since(t1).Seconds()
	ps.cpuSec = cpuSeconds() - cpu0
	if err != nil {
		return ps, err
	}
	if tr != nil {
		ps.traced = tr.drain()
		id := tr.add(span{TraceID: traceID, Layer: pipe.layer, Name: "pass", StartNs: start, EndNs: tr.now()})
		tr.addJobs(traceID, id, 0, pipe.layer, ps.traced)
	}
	ps.jobs = ctx.Jobs()
	ps.simSec = ctx.VirtualTime()
	ps.digest, err = digestOf(pipe.render, ps.result)
	return ps, err
}

// batchRunner returns the run function of a batch workload whose pipeline
// newPipeline builds.
func batchRunner(newPipeline func(*inputs) batchPipeline) func(workload, runOptions) (*runReport, error) {
	return func(w workload, o runOptions) (*runReport, error) { return runBatch(w, o, newPipeline) }
}

// runBatch runs one batch workload, untraced for the end-to-end metrics or
// traced for the per-layer ones.
func runBatch(w workload, o runOptions, newPipeline func(*inputs) batchPipeline) (*runReport, error) {
	rep := newRunReport(w, o)
	values := metricSet{}

	// Set-up: generate and encode. The untraced run repeats it for a median.
	rep.Setups = setupRepeats
	if o.traced {
		rep.Setups = 1
	}
	var in *inputs
	var inputSecs []float64
	for i := 0; i < rep.Setups; i++ {
		var err error
		if in, err = makeInputs(w.Shape, o.seed); err != nil {
			return nil, err
		}
		inputSecs = append(inputSecs, in.generateSec+in.encodeSec)
	}
	rep.InputDigest = in.digest
	pipe := newPipeline(in)

	// The warm-up pass grows the heap to its working size and yields the
	// result every later pass must reproduce.
	first, err := runPass(in, pipe, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up pass: %w", w.Name, err)
	}
	rep.ResultDigest = first.digest
	runtime.GC()

	var samples []passSample
	if o.traced {
		samples, err = traceBatch(rep, values, in, pipe, first, o)
	} else {
		samples, err = measureBatch(rep, values, in, pipe, inputSecs, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	differing := 0
	for _, ps := range samples {
		if ps.digest != first.digest {
			differing++
		}
	}
	rep.Passes = len(samples)
	rep.Attempted = len(samples) * pipe.ops
	rep.Failed = differing * pipe.ops
	var digestErr error
	if differing > 0 {
		digestErr = fmt.Errorf("%d of %d passes produced a different report", differing, len(samples))
	}
	rep.addCheck("every pass reproduces the warm-up pass's report digest", digestErr)
	pipe.verify(rep, first.result)
	return rep, rep.finish(values)
}

// measureBatch times untraced passes for o.seconds and fills the end-to-end
// metrics.
func measureBatch(rep *runReport, values metricSet, in *inputs, pipe batchPipeline, inputSecs []float64, o runOptions) ([]passSample, error) {
	var samples []passSample
	var rss float64
	for start := time.Now(); len(samples) < 2 || time.Since(start).Seconds() < o.seconds; {
		ps, err := runPass(in, pipe, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(samples)+1, err)
		}
		samples = append(samples, ps)
		if len(samples) == 1 {
			// Fixed work up to here (set-up, warm-up, one pass), so the
			// high-water mark does not depend on how many passes fit.
			rss = peakRSSMB()
		}
	}
	var walls, cpus, rates, setups []float64
	for _, ps := range samples {
		walls = append(walls, ps.wallSec*1000)
		cpus = append(cpus, ps.cpuSec/float64(pipe.ops)*1e6)
		rates = append(rates, float64(pipe.ops)/ps.wallSec)
		setups = append(setups, ps.setupSec)
	}
	perPass := median(setups)
	for i := range inputSecs {
		inputSecs[i] += perPass
	}
	values["setup_s"] = median(inputSecs)
	values["ops_per_s"] = float64(pipe.ops) / (median(walls) / 1000)
	values["cpu_us_per_op"] = median(cpus)
	values["latency_p50_ms"] = median(walls)
	values["peak_rss_mb"] = rss
	rep.Samples = map[string][]float64{
		"setup_s": inputSecs, "ops_per_s": rates, "cpu_us_per_op": cpus,
		"latency_p50_ms": walls, "peak_rss_mb": {rss},
	}
	return samples, nil
}

// traceBatch alternates untraced and traced passes for half of o.seconds,
// then replays the layers, and fills the per-layer metrics.
func traceBatch(rep *runReport, values metricSet, in *inputs, pipe batchPipeline, first passSample, o runOptions) ([]passSample, error) {
	tr := newTracer(runtime.NumCPU())
	before := snapRuntime()
	// Alternating puts drift over the run on both sides of
	// trace_overhead_share.
	var plain, traced []passSample
	for start := time.Now(); len(traced) < 1 || time.Since(start).Seconds() < o.seconds/2; {
		ps, err := runPass(in, pipe, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("untraced pass %d: %w", len(plain)+1, err)
		}
		plain = append(plain, ps)
		if ps, err = runPass(in, pipe, tr, uint64(len(traced)+1)); err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", len(traced)+1, err)
		}
		traced = append(traced, ps)
	}
	samples := append(append([]passSample(nil), plain...), traced...)
	runtimeMetrics(values, before, snapRuntime(), len(samples)*pipe.ops)

	values["gen.generate_s"] = in.generateSec
	values["data.encode_text_s"] = in.encodeSec
	var stageSecs []float64
	for _, ps := range samples {
		stageSecs = append(stageSecs, ps.stageSec)
	}
	values["dfs.stage_s"] = median(stageSecs)
	values["dfs.stage_mb_per_s"] = float64(in.bytes()) / 1e6 / median(stageSecs)

	units := make([]tracedUnit, len(traced))
	for i, ps := range traced {
		jt := sumJobs(ps.traced)
		units[i] = tracedUnit{jobTimes: jt, gapSec: ps.wallSec - jt.jobWall, simSec: ps.simSec}
	}
	pt := passTimes{
		jobTimes: engineTimeMetrics(values, units, tr.workers),
		wallSec:  medianWall(traced), plainWallSec: medianWall(plain), workers: tr.workers,
	}
	engineCounts(values, traced[0].jobs)
	values["trace_overhead_share"] = 1 - pt.plainWallSec/pt.wallSec
	if err := pipe.suites(suiteEnv{m: values, in: in, log: o.log}, pt, first.result); err != nil {
		return nil, fmt.Errorf("layer replays: %w", err)
	}
	rep.Counts = countsOf(values)
	title := fmt.Sprintf("%s: per-stage breakdown of one traced pass", rep.Workload)
	return samples, finishTrace(tr, o, rep.Workload, title, traced[0].traced)
}

// countsOf picks the values that must repeat exactly for a seed: the engine's
// counters and byte totals and every other count, except the Go runtime's,
// which are measurements.
func countsOf(values metricSet) map[string]float64 {
	counts := map[string]float64{}
	for name, v := range values {
		u := unitOf(perLayer, name)
		if (u == "count" && !strings.HasPrefix(name, "runtime.")) || (u == "bytes" && strings.HasPrefix(name, "rdd.")) {
			counts[name] = v
		}
	}
	return counts
}

// finishTrace prints the traced run's tables and writes its trace file.
func finishTrace(tr *tracer, o runOptions, workload, title string, jobs []*jobRec) error {
	printStageTable(o.log, title, jobs)
	tr.printLayerBusy(o.log)
	path := filepath.Join(o.traceDir, workload+".trace.json")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "\nwrote %s (open in ui.perfetto.dev or chrome://tracing)\n", path)
	return nil
}

func medianWall(samples []passSample) float64 {
	walls := make([]float64, len(samples))
	for i, ps := range samples {
		walls[i] = ps.wallSec
	}
	return median(walls)
}

// tracedUnit is the listener's view of one traced pass or served segment.
type tracedUnit struct {
	jobTimes
	gapSec float64 // wall outside any job
	simSec float64 // virtual-clock seconds
}

// engineTimeMetrics fills the listener-derived rdd.* times as medians over the
// traced units and returns those medians.
func engineTimeMetrics(m metricSet, units []tracedUnit, workers int) jobTimes {
	col := func(f func(tracedUnit) float64) float64 {
		xs := make([]float64, len(units))
		for i, u := range units {
			xs[i] = f(u)
		}
		return median(xs)
	}
	jt := jobTimes{
		taskCompute:   col(func(u tracedUnit) float64 { return u.taskCompute }),
		mapCompute:    col(func(u tracedUnit) float64 { return u.mapCompute }),
		resultCompute: col(func(u tracedUnit) float64 { return u.resultCompute }),
		jobWall:       col(func(u tracedUnit) float64 { return u.jobWall }),
	}
	m["rdd.task_compute_s"] = jt.taskCompute
	m["rdd.shuffle_map_compute_s"] = jt.mapCompute
	m["rdd.result_compute_s"] = jt.resultCompute
	m["rdd.job_wall_s"] = jt.jobWall
	m["rdd.sched_overhead_share"] = 1 - jt.taskCompute/(jt.jobWall*float64(workers))
	m["rdd.driver_gap_s"] = col(func(u tracedUnit) float64 { return u.gapSec })
	m["rdd.sim_s"] = col(func(u tracedUnit) float64 { return u.simSec })
	return jt
}

// engineCounts sums the engine's own per-job counters. They are functions of
// the inputs and the configuration, so they repeat exactly for a seed.
func engineCounts(m metricSet, jobs []rdd.JobMetrics) {
	m["rdd.jobs"] = float64(len(jobs))
	var peak int64
	for _, j := range jobs {
		m["rdd.stages"] += float64(j.Stages)
		m["rdd.tasks"] += float64(j.Tasks)
		m["rdd.shuffle_bytes"] += float64(j.ShuffleBytes)
		m["rdd.shuffle_remote_bytes"] += float64(j.ShuffleRemoteBytes)
		m["rdd.cache_read_bytes"] += float64(j.CacheReadBytes)
		m["rdd.dfs_bytes"] += float64(j.DFSBytes)
		m["rdd.materialized_bytes"] += float64(j.MaterializedBytes)
		m["rdd.spilled_bytes"] += float64(j.SpilledBytes)
		m["rdd.spill_count"] += float64(j.SpillCount)
		m["rdd.evictions"] += float64(j.Evictions)
		m["rdd.task_retries"] += float64(j.TaskRetries)
		peak = max(peak, j.PeakMaterializedBytes)
	}
	m["rdd.peak_materialized_bytes"] = float64(peak)
}

// eqtlTopK is the number of most significant pairs eqtl_wide keeps.
const eqtlTopK = 100

func eqtlPipeline(in *inputs) batchPipeline {
	sh := in.shape
	return batchPipeline{
		layer: "assoc",
		ops:   sh.SNPs * sh.Phenos,
		prepare: func(ctx *rdd.Context) (func() (any, error), error) {
			a, err := assoc.NewAnalysis(ctx, genoPath, exprPath, assoc.Config{TopK: eqtlTopK})
			if err != nil {
				return nil, err
			}
			if s := a.Strategy(); s != "broadcast" {
				return nil, fmt.Errorf("eqtl_wide expects the broadcast strategy, the engine chose %s", s)
			}
			return func() (any, error) { return a.Run() }, nil
		},
		render: func(w io.Writer, result any) error { return assoc.WriteReport(w, result.(*assoc.Result)) },
		verify: func(r *runReport, result any) { verifyEQTL(r, in, result.(*assoc.Result)) },
		suites: func(e suiteEnv, traced passTimes, result any) error {
			blocks, err := scanSuite(e)
			if err != nil {
				return err
			}
			return assocSuite(e, blocks, assocWork{
				tested:      result.(*assoc.Result).Tested,
				taskCompute: traced.taskCompute,
				driverGap:   traced.wallSec - traced.jobWall,
				opsPerSec:   float64(sh.SNPs*sh.Phenos) / traced.plainWallSec,
				workers:     traced.workers,
			})
		},
	}
}

type (
	resampleFunc  func(a *core.Analysis, iterations int) (*core.Result, error)
	referenceFunc func(ds *data.Dataset, opts core.Options, iterations int) (*core.Result, error)
)

// verifyIterations is the replicate count of the run checked against the
// single-threaded reference.
const verifyIterations = 8

// monteCarloPipeline is Algorithm 3: the matrix is scanned and scored once,
// then the cached U is reweighted for every replicate.
func monteCarloPipeline(in *inputs) batchPipeline {
	return resamplePipeline(in, (*core.Analysis).MonteCarlo, core.ReferenceMonteCarlo, 1)
}

// permutationPipeline is Algorithm 2: the whole pipeline re-runs for the
// observed statistic and for every replicate.
func permutationPipeline(in *inputs) batchPipeline {
	return resamplePipeline(in, (*core.Analysis).Permutation, core.ReferencePermutation, in.shape.Iterations+1)
}

// resamplePipeline adapts mc_cached and perm_scan; scans is how many times a
// pass parses and scores the genotype matrix.
func resamplePipeline(in *inputs, resample resampleFunc, reference referenceFunc, scans int) batchPipeline {
	sh := in.shape
	return batchPipeline{
		layer: "core",
		ops:   sh.Iterations,
		prepare: func(ctx *rdd.Context) (func() (any, error), error) {
			a, err := core.NewAnalysis(ctx, corePaths(), coreOptions(in.seed))
			if err != nil {
				return nil, err
			}
			return func() (any, error) { return resample(a, sh.Iterations) }, nil
		},
		render: func(w io.Writer, result any) error { return core.WriteResult(w, result.(*core.Result)) },
		verify: func(r *runReport, _ any) {
			r.addCheck(fmt.Sprintf("B=%d re-run matches the single-threaded reference", verifyIterations),
				verifyResample(in, resample, reference))
		},
		suites: func(e suiteEnv, traced passTimes, _ any) error {
			blocks, err := scanSuite(e)
			if err != nil {
				return err
			}
			return coreSuite(e, blocks, coreWork{scans: scans, scorePasses: sh.Iterations + 1, taskCompute: traced.taskCompute})
		},
	}
}
