// The serving experiment: job-server behaviour the paper never measured but
// the job-server subsystem makes measurable — how per-request latency on the
// simulated cluster responds to concurrent clients under FIFO versus FAIR
// scheduling. Latency is virtual-time sojourn: the span from a request's
// submission (cluster clock at submit) to its job's JobEnd, so FIFO's
// head-of-line blocking and FAIR's slot sharing show up in the same metric.
//
// Each request is a resampling-shaped two-stage pipeline (per-SNP-block
// contributions reduced onto SNP-sets) whose tasks declare their per-block
// kernel work to the virtual clock instead of doing it. What holds FAIR
// requests overlapping is therefore not how long a task takes on the host but
// a rendezvous (servingGate).

package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"sparkscore/internal/cluster"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

const (
	// servingParts is tasks per request stage, matching the 32 cluster slots:
	// a lone request fills the whole cluster for one wave.
	servingParts = 32
	// servingBlockOps is the kernel work a block declares: 0.4 ms on the
	// virtual clock, a 256-row block of 1000 patients at a batch of eleven.
	servingBlockOps = 2_800_000
)

// runServing measures interactive resampling served against one shared
// driver: for each scheduler mode and client count, every client submits
// one request from its own goroutine, odd clients into a
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

// servingGate is a listener that holds a cell's FAIR requests overlapping on
// the virtual clock however the host interleaves the clients: no first-stage
// task runs until every request's job has started, and no job ends until
// every job's first stage has been accounted — so each of those stages, which
// carry the requests' virtual time, is divided among all the clients. What
// stays host-ordered is the short second stage and which job id a client
// draws, which is why this experiment is in no golden file.
type servingGate struct{ started, accounted sync.WaitGroup }

func (g *servingGate) OnEvent(ev rdd.Event) {
	switch e := ev.(type) {
	case *rdd.JobStart:
		g.started.Done()
	case *rdd.StageCompleted:
		if strings.HasPrefix(e.RDD, "map:resample:") {
			g.accounted.Done()
		}
	}
}

// servingRequest builds one request's pipeline: per-SNP-block contributions
// (one charged map element per block) reduced onto a handful of SNP-sets. A
// non-nil gate holds it where servingGate says; the second wait parks one
// task per request.
func servingRequest(ctx *rdd.Context, label string, gate *servingGate) *rdd.RDD[rdd.KV[int, float64]] {
	blocks := make([]int, 2*servingParts)
	for i := range blocks {
		blocks[i] = i
	}
	base := rdd.Parallelize(ctx, blocks, servingParts).SetSizeHint(8)
	contrib := rdd.MapWithSetup(base, "resample:"+label, func(t rdd.Task) func(int) rdd.KV[int, float64] {
		if gate != nil {
			gate.started.Wait()
		}
		return func(b int) rdd.KV[int, float64] {
			t.Charge(servingBlockOps)
			return rdd.KV[int, float64]{K: b % 8, V: float64(b)}
		}
	}).SetSizeHint(16)
	sums := rdd.ReduceByKey(contrib, func(x, y float64) float64 { return x + y }, 8)
	return rdd.MapWithSetup(sums, "hold", func(t rdd.Task) func(rdd.KV[int, float64]) rdd.KV[int, float64] {
		if gate != nil && t.Partition == 0 {
			gate.accounted.Wait()
		}
		return func(kv rdd.KV[int, float64]) rdd.KV[int, float64] { return kv }
	}).SetSizeHint(16)
}

// measureServing runs one (mode, clients) cell on a fresh driver. A
// rendezvous holds every client until all are ready, so the requests are
// submitted together at virtual time zero — a request's sojourn is its job's
// end — and the modes differ only in how they schedule them. Under FAIR the
// gate keeps them sharing the cluster; under FIFO a job starts only when its
// predecessor has ended, and the queueing is the measurement.
func measureServing(seed uint64, mode rdd.SchedulerMode, clients int) (servingRow, error) {
	var gate *servingGate
	var listeners []rdd.Listener
	if mode == rdd.SchedFAIR {
		gate = &servingGate{}
		gate.started.Add(clients)
		gate.accounted.Add(clients)
		listeners = append(listeners, gate)
	}
	ctx, err := rdd.New(rdd.Config{
		// 8-core executors (32 slots): wide enough that a 3:1 weight ratio
		// survives stageSlots' one-slot-per-executor floor with 4 jobs per pool.
		Cluster: cluster.Config{
			Nodes: 2, Spec: cluster.NodeSpec{Name: "serve", VCPUs: 16, MemGiB: 16},
			ExecutorsPerNode: 2, CoresPerExecutor: 8, MemPerExecutorGiB: 4,
		},
		Seed:    seed,
		Workers: 16, // the gate parks up to one task per client
		Scheduler: rdd.SchedulerConfig{
			Mode: mode,
			Pools: []rdd.PoolSpec{
				{Name: "interactive", Weight: 3},
				{Name: "batch", Weight: 1},
			},
		},
		StageOverheadSec: 1e-9, // so sojourns reflect task time, not DAG overhead
		Listeners:        listeners,
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
			spans, err := ctx.Submit(rdd.Submission{Pool: pool}, func() error {
				_, cerr := rdd.CollectAsMap(servingRequest(ctx, fmt.Sprintf("c%d", c), gate))
				return cerr
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for _, sp := range spans {
				row.byPool[pool] = append(row.byPool[pool], sp.EndVirtual)
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
