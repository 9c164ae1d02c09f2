// The serving experiment: job-server behaviour the paper never measured but
// the job-server subsystem makes measurable — how per-request latency on the
// simulated cluster responds to concurrent clients under FIFO versus FAIR
// scheduling. Latency is virtual-time sojourn: the span from a request's
// submission (cluster clock at submit) to its job's JobEnd, so FIFO's
// head-of-line blocking and FAIR's slot sharing show up in the same metric.
//
// Each request is a resampling-shaped two-stage pipeline (per-SNP-block
// contributions reduced onto SNP-sets) whose tasks park on a timer instead of
// spinning, standing in for the measured per-block compute. Parked tasks
// release the host processor, so concurrently submitted requests genuinely
// coexist even on a single-CPU host — CPU-bound request bodies would
// serialise there and neither mode could ever overlap jobs. The virtual-time
// model charges the measured task duration either way.

package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"sparkscore/internal/cluster"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

const (
	// servingJobsPerClient is how many sequential requests each client submits.
	servingJobsPerClient = 1
	// servingParts is tasks per request stage, matching the 32 cluster slots:
	// a lone request fills the whole cluster for one wave.
	servingParts = 32
	// servingPause is the per-element park standing in for block compute.
	servingPause = 400 * time.Microsecond
)

// runServing measures interactive resampling served against one shared
// driver: for each scheduler mode and client count, every client submits
// servingJobsPerClient requests from its own goroutine, odd clients into a
// weight-1 "batch" pool and even clients into a weight-3 "interactive" pool,
// and the virtual-time sojourn of every request is recorded.
func runServing(h *Harness, w io.Writer) error {
	t := metrics.NewTable("Serving: concurrent resampling clients, FIFO vs FAIR",
		"mode", "clients", "requests", "makespan(sim-s)", "p50", "p99", "interactive-p50", "batch-p50", "req/sim-s")
	for _, mode := range []rdd.SchedulerMode{rdd.SchedFIFO, rdd.SchedFAIR} {
		for _, clients := range []int{1, 2, 4, 8} {
			row, err := measureServing(h.Seed, mode, clients)
			if err != nil {
				return fmt.Errorf("serving %s x%d: %w", mode, clients, err)
			}
			all := append(append([]float64(nil), row.byPool["interactive"]...), row.byPool["batch"]...)
			t.AddRowf(mode.String(), clients, len(all),
				metrics.FormatSeconds(row.makespan),
				metrics.FormatSeconds(percentile(all, 0.50)),
				metrics.FormatSeconds(percentile(all, 0.99)),
				metrics.FormatSeconds(percentile(row.byPool["interactive"], 0.50)),
				metrics.FormatSeconds(percentile(row.byPool["batch"], 0.50)),
				fmt.Sprintf("%.1f", float64(len(all))/row.makespan))
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nLatency is virtual-time sojourn (submission to JobEnd). Under FIFO later")
	fmt.Fprintln(w, "requests queue behind whole jobs (p99 grows with clients, pools are moot);")
	fmt.Fprintln(w, "under FAIR requests share slots, and the weight-3 interactive pool's")
	fmt.Fprintln(w, "requests finish ahead of the weight-1 batch pool's.")
	return nil
}

type servingRow struct {
	byPool   map[string][]float64
	makespan float64
}

// servingRequest builds one request's pipeline: per-SNP-block contributions
// (one parked map element per block) reduced onto a handful of SNP-sets.
func servingRequest(ctx *rdd.Context, label string) *rdd.RDD[rdd.KV[int, float64]] {
	blocks := make([]int, 2*servingParts)
	for i := range blocks {
		blocks[i] = i
	}
	base := rdd.Parallelize(ctx, blocks, servingParts).SetSizeHint(8)
	contrib := rdd.Map(base, "resample:"+label, func(b int) rdd.KV[int, float64] {
		time.Sleep(servingPause)
		return rdd.KV[int, float64]{K: b % 8, V: float64(b)}
	}).SetSizeHint(16)
	return rdd.ReduceByKey(contrib, func(x, y float64) float64 { return x + y }, 8)
}

// measureServing runs one (mode, clients) cell on a fresh driver. A
// rendezvous holds every client until all are ready, so first-wave requests
// are submitted together and the modes differ only in how they schedule them.
func measureServing(seed uint64, mode rdd.SchedulerMode, clients int) (servingRow, error) {
	ctx, err := rdd.New(rdd.Config{
		// 8-core executors (32 slots): wide enough that a 3:1 weight ratio
		// survives stageSlots' one-slot-per-executor floor with 4 jobs per pool.
		Cluster: cluster.Config{
			Nodes: 2, Spec: cluster.NodeSpec{Name: "serve", VCPUs: 16, MemGiB: 16},
			ExecutorsPerNode: 2, CoresPerExecutor: 8, MemPerExecutorGiB: 4,
		},
		Seed:    seed,
		Workers: 64, // parked tasks from 8 concurrent jobs must not exhaust host-side slots
		Scheduler: rdd.SchedulerConfig{
			Mode: mode,
			Pools: []rdd.PoolSpec{
				{Name: "interactive", Weight: 3},
				{Name: "batch", Weight: 1},
			},
		},
		StageOverheadSec: 1e-9, // so sojourns reflect task time, not DAG overhead
	})
	if err != nil {
		return servingRow{}, err
	}

	row := servingRow{byPool: map[string][]float64{"interactive": {}, "batch": {}}}
	var mu sync.Mutex
	var firstErr error
	var wg, ready sync.WaitGroup
	ready.Add(clients)
	for c := 0; c < clients; c++ {
		pool := "interactive"
		if c%2 == 1 {
			pool = "batch"
		}
		wg.Add(1)
		go func(c int, pool string) {
			defer wg.Done()
			ready.Done()
			ready.Wait()
			for i := 0; i < servingJobsPerClient; i++ {
				label := fmt.Sprintf("c%d-r%d", c, i)
				submit := ctx.VirtualTime()
				spans, err := ctx.Submit(rdd.Submission{Pool: pool}, func() error {
					_, cerr := rdd.CollectAsMap(servingRequest(ctx, label))
					return cerr
				})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for _, sp := range spans {
					row.byPool[pool] = append(row.byPool[pool], sp.EndVirtual-submit)
				}
				mu.Unlock()
			}
		}(c, pool)
	}
	wg.Wait()
	if firstErr != nil {
		return servingRow{}, firstErr
	}
	row.makespan = ctx.VirtualTime()
	return row, nil
}

// percentile returns the q-quantile of xs by the nearest-rank method.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
