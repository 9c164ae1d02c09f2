// The benchmark's declarations: which workloads it runs and which metrics it
// reports. BENCHMARK.json at the repository root states the same lists for
// the driver; bench_test.go fails when the two disagree.

package main

const (
	// runSeconds is how long one run measures unless -seconds says otherwise
	// (BENCHMARK.json's run_seconds).
	runSeconds = 15

	lower  = "lower"
	higher = "higher"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. Every workload reports every one; none can read 0.
// (Failures are not a metric here: they travel in the result line's
// attempted/failed/correct fields, where any increase rejects a change.)
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: higher, Bound: 0.24},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower, Bound: 0.24},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.24},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20},
}

// perLayer are the metrics of single layers, reported by the traced run.
// Layers are module names; runtime is the Go runtime. A metric whose layer a
// workload never enters reads 0 there (see README.md for which apply where).
var perLayer = []metricDef{
	// Set-up timers.
	{Name: "gen.generate_s", Unit: "s", Better: lower},
	{Name: "data.encode_text_s", Unit: "s", Better: lower},
	{Name: "dfs.stage_s", Unit: "s", Better: lower},
	{Name: "dfs.stage_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "data.phenomatrix_read_s", Unit: "s", Better: lower},

	// Scan-path replays.
	{Name: "dfs.readall_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "rdd.textscan_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "data.parse_pack_ns_per_genotype", Unit: "ns", Better: lower},
	{Name: "data.parse_pack_mb_per_s", Unit: "MB/s", Better: higher},

	// Kernel replays.
	{Name: "stats.contrib_ns_per_genotype", Unit: "ns", Better: lower},
	{Name: "stats.model_build_ms", Unit: "ms", Better: lower},
	{Name: "stats.ublock_scores_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "stats.ublock_scores_gb_per_s", Unit: "GB/s", Better: higher},
	{Name: "stats.wide_kernel_pairs_per_s", Unit: "1/s", Better: higher},
	{Name: "stats.wide_kernel_ns_per_patient_pair", Unit: "ns", Better: lower},
	{Name: "stats.wide_kernel_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "stats.pvalue_ns_per_call", Unit: "ns", Better: lower},

	// Engine counts per pass (per traced segment on serve_mixed), from ctx.Jobs().
	{Name: "rdd.jobs", Unit: "count", Better: lower},
	{Name: "rdd.stages", Unit: "count", Better: lower},
	{Name: "rdd.tasks", Unit: "count", Better: lower},
	{Name: "rdd.shuffle_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.shuffle_remote_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.cache_read_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.dfs_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.materialized_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.peak_materialized_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.spilled_bytes", Unit: "bytes", Better: lower},
	{Name: "rdd.spill_count", Unit: "count", Better: lower},
	{Name: "rdd.evictions", Unit: "count", Better: lower},
	{Name: "rdd.task_retries", Unit: "count", Better: lower},

	// Engine host time per pass, from the benchmark's listener.
	{Name: "rdd.task_compute_s", Unit: "s", Better: lower},
	{Name: "rdd.shuffle_map_compute_s", Unit: "s", Better: lower},
	{Name: "rdd.result_compute_s", Unit: "s", Better: lower},
	{Name: "rdd.job_wall_s", Unit: "s", Better: lower},
	{Name: "rdd.sched_overhead_share", Unit: "ratio", Better: lower},
	{Name: "rdd.driver_gap_s", Unit: "s", Better: lower},

	// Engine replays and the virtual clock.
	{Name: "rdd.empty_task_us", Unit: "us", Better: lower},
	{Name: "rdd.shuffle_ns_per_record", Unit: "ns", Better: lower},
	{Name: "rdd.cache_read_job_ms", Unit: "ms", Better: lower},
	{Name: "rdd.sim_s", Unit: "s", Better: lower},

	// The SKAT pipeline.
	{Name: "core.warm_s", Unit: "s", Better: lower},
	{Name: "core.observed_s", Unit: "s", Better: lower},
	{Name: "core.replicate_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.jobs_per_replicate", Unit: "count", Better: lower},
	{Name: "core.self_cpu_s", Unit: "s", Better: lower},
	{Name: "core.reference_mc_iters_per_s", Unit: "1/s", Better: higher},
	{Name: "core.reference_perm_iters_per_s", Unit: "1/s", Better: higher},

	// The all-pairs pipeline.
	{Name: "assoc.pairs_tested", Unit: "count", Better: higher},
	{Name: "assoc.task_compute_s", Unit: "s", Better: lower},
	{Name: "assoc.self_cpu_s", Unit: "s", Better: lower},
	{Name: "assoc.self_share", Unit: "ratio", Better: lower},
	{Name: "assoc.driver_gap_ms", Unit: "ms", Better: lower},
	{Name: "assoc.kernel_ceiling_ratio", Unit: "ratio", Better: higher},

	// The job server.
	{Name: "server.requests", Unit: "count", Better: higher},
	{Name: "server.failed", Unit: "count", Better: lower},
	{Name: "server.rejected_429", Unit: "count", Better: lower},
	{Name: "server.timed_out_408", Unit: "count", Better: lower},
	{Name: "server.cache_hit_share", Unit: "ratio", Better: higher},
	{Name: "server.hit_latency_p50_ms", Unit: "ms", Better: lower},
	{Name: "server.miss_latency_p50_ms", Unit: "ms", Better: lower},
	{Name: "server.latency_p95_ms", Unit: "ms", Better: lower},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: lower},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.healthz_us_p50", Unit: "us", Better: lower},
	{Name: "server.response_bytes_p50", Unit: "bytes", Better: lower},
	{Name: "server.score_miss_ms", Unit: "ms", Better: lower},
	{Name: "server.skat_miss_ms", Unit: "ms", Better: lower},
	{Name: "server.eqtl_first_page_ms", Unit: "ms", Better: lower},
	{Name: "server.eqtl_next_page_ms", Unit: "ms", Better: lower},

	// The Go runtime, over the traced run's timed passes.
	{Name: "runtime.alloc_bytes_per_op", Unit: "bytes", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.heap_inuse_end_mb", Unit: "MB", Better: lower},
	{Name: "runtime.rss_mb_per_kop", Unit: "MB", Better: lower},

	{Name: "trace_overhead_share", Unit: "ratio", Better: lower},
}

// metricSet collects one run's values by declared name.
type metricSet map[string]float64

// unitOf returns the declared unit of a metric in defs.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
