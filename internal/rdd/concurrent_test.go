// Concurrent multi-job execution: the race-detector stress test (N jobs from
// N goroutines against one Context), the FAIR-versus-FIFO acceptance checks
// (equal-weight pools split the cluster ~in half in virtual time; FIFO runs
// back-to-back), the share arithmetic under unequal weights, per-job byte-stability of event logs across seeded runs, and
// the Jobs()-snapshot guarantee that in-flight jobs stay invisible.

package rdd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkscore/internal/cluster"
)

// concTestCluster is 2 nodes x 2 executors x 4 cores = 16 slots.
func concTestCluster() cluster.Config {
	return cluster.Config{
		Nodes:             2,
		Spec:              cluster.NodeSpec{Name: "conc", VCPUs: 8, MemGiB: 8},
		ExecutorsPerNode:  2,
		CoresPerExecutor:  4,
		MemPerExecutorGiB: 2,
	}
}

// overlapGate is a listener that holds n concurrently submitted FAIR jobs
// overlapping on the virtual clock however the host interleaves their
// goroutines: no stage-1 task of heavyPipeline runs until every job has
// started, and no job gets past stage 3 until every job's stage 1 has been
// accounted — so each of those stages is divided among all n jobs.
type overlapGate struct{ started, accounted sync.WaitGroup }

func newOverlapGate(n int) *overlapGate {
	g := &overlapGate{}
	g.started.Add(n)
	g.accounted.Add(n)
	return g
}

func (g *overlapGate) OnEvent(ev Event) {
	switch e := ev.(type) {
	case *JobStart:
		g.started.Done()
	case *StageCompleted:
		if strings.HasPrefix(e.RDD, "map:w:") {
			g.accounted.Done()
		}
	}
}

// heavyPipeline builds a 4-stage pipeline (three chained shuffles plus the
// result stage) with `parts` tasks per stage, labelled uniquely so jobs are
// identifiable in logs and metrics regardless of job-id assignment order.
// Each stage-1 element declares ops kernel operations, so that stage carries
// the job's virtual time. A non-nil gate holds the job where overlapGate
// says; its stage-3 wait parks one task per job, which the Workers of the
// context must exceed.
func heavyPipeline(c *Context, label string, parts int, ops int64, gate *overlapGate) *RDD[KV[int, int]] {
	base := Parallelize(c, seq(4*parts), parts)
	m := MapWithSetup(base, "w:"+label, func(t Task) func(int) KV[int, int] {
		if gate != nil {
			gate.started.Wait()
		}
		return func(x int) KV[int, int] {
			t.Charge(ops)
			return KV[int, int]{K: x % 64, V: 1}
		}
	})
	r1 := ReduceByKey(m, func(a, b int) int { return a + b }, parts)
	m2 := Map(r1, "x:"+label, func(kv KV[int, int]) KV[int, int] { return KV[int, int]{K: kv.K % 32, V: kv.V} })
	r2 := ReduceByKey(m2, func(a, b int) int { return a + b }, parts)
	m3 := MapWithSetup(r2, "y:"+label, func(t Task) func(KV[int, int]) KV[int, int] {
		if gate != nil && t.Partition == 0 {
			gate.accounted.Wait()
		}
		return func(kv KV[int, int]) KV[int, int] { return KV[int, int]{K: kv.K % 8, V: kv.V} }
	})
	return ReduceByKey(m3, func(a, b int) int { return a + b }, parts)
}

// taskSecondsListener sums successful task-attempt virtual durations per job.
type taskSecondsListener struct {
	mu  sync.Mutex
	sum map[uint64]float64
}

func (l *taskSecondsListener) OnEvent(ev Event) {
	if e, ok := ev.(*TaskEnd); ok && e.OK {
		l.mu.Lock()
		if l.sum == nil {
			l.sum = map[uint64]float64{}
		}
		l.sum[e.Job] += e.DurationSec
		l.mu.Unlock()
	}
}

// runTwoPoolJobs submits the same two heavy pipelines from two goroutines
// into pools "a" and "b" and returns each job's virtual span plus its mean
// slot occupancy as a fraction of the cluster (task-seconds / span / slots).
func runTwoPoolJobs(t *testing.T, mode SchedulerMode) (spans []JobSpan, shares []float64) {
	t.Helper()
	tl := &taskSecondsListener{}
	// Under FAIR the gate holds both jobs active while either's heavy stage
	// is accounted (the half-share steady state). Under FIFO it would
	// deadlock — job 2 cannot start until job 1 ends — so it is disabled;
	// serialisation is the property under test there.
	var gate *overlapGate
	listeners := []Listener{tl}
	if mode == SchedFAIR {
		gate = newOverlapGate(2)
		listeners = append(listeners, gate)
	}
	cfg := Config{
		Cluster: concTestCluster(),
		Seed:    7,
		Workers: 16,
		Scheduler: SchedulerConfig{
			Mode:  mode,
			Pools: []PoolSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
		},
		StageOverheadSec: 1e-9, // so occupancy reflects task slots, not DAG overhead
		Listeners:        listeners,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lineages are built sequentially (deterministic node and shuffle ids);
	// only submission is concurrent.
	pipes := []*RDD[KV[int, int]]{
		heavyPipeline(c, "p0", 32, 70_000_000, gate), // 10 ms a stage-1 element
		heavyPipeline(c, "p1", 32, 70_000_000, gate),
	}

	spanCh := make(chan JobSpan, 2)
	var wg, ready sync.WaitGroup
	ready.Add(2) // rendezvous: both submitters live before either submits
	for i, pool := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, pool string) {
			defer wg.Done()
			ready.Done()
			ready.Wait()
			ss, err := c.Submit(Submission{Pool: pool}, func() error {
				out, err := Collect(pipes[i])
				if err == nil && len(out) == 0 {
					err = fmt.Errorf("pipeline %d returned no output", i)
				}
				return err
			})
			if err != nil {
				t.Errorf("job in pool %s: %v", pool, err)
				return
			}
			if len(ss) != 1 {
				t.Errorf("pool %s: want 1 observed job, got %d", pool, len(ss))
				return
			}
			spanCh <- ss[0]
		}(i, pool)
	}
	wg.Wait()
	close(spanCh)

	slots := float64(16)
	for s := range spanCh {
		spans = append(spans, s)
		tl.mu.Lock()
		sum := tl.sum[s.Job]
		tl.mu.Unlock()
		width := s.EndVirtual - s.StartVirtual
		if width <= 0 {
			t.Fatalf("job %d has non-positive virtual span %v", s.Job, width)
		}
		shares = append(shares, sum/width/slots)
	}
	if len(spans) != 2 {
		t.Fatalf("want 2 job spans, got %d", len(spans))
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartVirtual < spans[j].StartVirtual })
	return spans, shares
}

// TestFairSchedulerSplitsSlots is the FAIR half of the acceptance criterion:
// two jobs in equal-weight pools overlap on the virtual clock and each
// occupies ~half the cluster's slots over its span.
func TestFairSchedulerSplitsSlots(t *testing.T) {
	spans, shares := runTwoPoolJobs(t, SchedFAIR)

	overlap := min(spans[0].EndVirtual, spans[1].EndVirtual) - spans[1].StartVirtual
	width := spans[0].EndVirtual - spans[0].StartVirtual
	if overlap < width/2 {
		t.Errorf("FAIR jobs barely overlap: overlap=%.4f of span %.4f (spans %+v)", overlap, width, spans)
	}
	for i, sh := range shares {
		if sh < 0.3 || sh > 0.7 {
			t.Errorf("FAIR job %d slot share = %.3f, want ~0.5 (equal-weight pools)", i, sh)
		}
	}
}

// TestFIFOSchedulerRunsBackToBack is the FIFO half: the same two submissions
// serialise — disjoint virtual spans, each at (near) full cluster occupancy.
func TestFIFOSchedulerRunsBackToBack(t *testing.T) {
	spans, shares := runTwoPoolJobs(t, SchedFIFO)

	if spans[0].EndVirtual > spans[1].StartVirtual+1e-9 {
		t.Errorf("FIFO jobs overlap in virtual time: first ends %.6f, second starts %.6f",
			spans[0].EndVirtual, spans[1].StartVirtual)
	}
	for i, sh := range shares {
		if sh < 0.8 {
			t.Errorf("FIFO job %d slot share = %.3f, want ~1.0 (whole cluster)", i, sh)
		}
	}
}

// TestFairSharesFollowPoolWeights pins the share arithmetic FAIR accounts each
// stage under, with unequal weights: while both run, a weight-3 pool's job
// gets three times the slots of a weight-1 pool's.
func TestFairSharesFollowPoolWeights(t *testing.T) {
	const slots = 32
	weighted := []PoolSpec{{Name: "interactive", Weight: 3}, {Name: "batch", Weight: 1}}
	type job struct {
		pool string
		want float64
	}
	for _, tc := range []struct {
		name  string
		mode  SchedulerMode
		pools []PoolSpec
		jobs  []job
	}{
		{"3:1 weights, one job per pool", SchedFAIR, weighted,
			[]job{{"interactive", 0.75}, {"batch", 0.25}}},
		{"two jobs halve their pool's share", SchedFAIR, weighted,
			[]job{{"interactive", 0.375}, {"interactive", 0.375}, {"batch", 0.25}}},
		{"minShare raises a small pool to its floor", SchedFAIR,
			[]PoolSpec{{Name: "interactive", Weight: 3}, {Name: "batch", Weight: 1, MinShare: 16}},
			[]job{{"interactive", 0.75}, {"batch", 0.5}}},
		{"a lone job gets the cluster", SchedFAIR, weighted,
			[]job{{"batch", 1}}},
		{"FIFO gives every job the cluster", SchedFIFO, weighted,
			[]job{{"interactive", 1}, {"batch", 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newJobArbiter(SchedulerConfig{Mode: tc.mode, Pools: tc.pools}, 1)
			for id, j := range tc.jobs {
				a.jobStarted(uint64(id), j.pool)
			}
			for id, j := range tc.jobs {
				if got := a.slotFraction(uint64(id), slots); got != j.want {
					t.Errorf("job %d in %s: slotFraction = %v, want %v", id, j.pool, got, j.want)
				}
			}
		})
	}
}

// perJobLogs groups a (possibly interleaved) event log by job and renders each
// job's event subsequence as one string keyed by the job's identity (action +
// lineage label). Two things in a concurrent FAIR log follow which jobs
// overlapped on the host rather than the seed, and are removed: job ids
// (assigned in admission order) and the timeline — timestamps, task start
// times, stage and job seconds, all stretched by the slot share a stage was
// accounted under. Everything else, each task's DurationSec included, stays.
func perJobLogs(t *testing.T, raw []byte) map[string]string {
	t.Helper()
	type logLine struct {
		Type string         `json:"type"`
		Data map[string]any `json:"data"`
	}
	var lines []logLine
	keyByJob := map[any]string{}
	for _, text := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var l logLine
		if err := json.Unmarshal(text, &l); err != nil {
			t.Fatal(err)
		}
		if l.Type == "JobStart" {
			keyByJob[l.Data["job"]] = fmt.Sprint(l.Data["action"], " ", l.Data["rdd"])
		}
		lines = append(lines, l)
	}
	logs := map[string]string{}
	for _, l := range lines {
		key, ok := keyByJob[l.Data["job"]]
		if !ok {
			continue // context events (NodeLost etc.) belong to no job
		}
		for _, hostOrdered := range []string{"job", "time", "startSec", "seconds", "virtualSeconds"} {
			delete(l.Data, hostOrdered)
		}
		text, err := json.Marshal(l) // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		logs[key] += string(text) + "\n"
	}
	return logs
}

// TestConcurrentJobsStress submits 8 jobs from 8 goroutines against one FAIR
// context (race detector on: `go test -race` runs this), asserts every job
// completes with correct results and a full metrics snapshot, that Jobs()
// polled mid-flight never exposes more jobs than have ended, and that each
// job's event log (perJobLogs) is byte-identical across two seeded runs.
func TestConcurrentJobsStress(t *testing.T) {
	const n = 8
	run := func() (map[string]string, []JobMetrics) {
		var buf bytes.Buffer
		elw := NewEventLogWriter(&buf)
		c, err := New(Config{
			Cluster: concTestCluster(),
			Seed:    21,
			Workers: 16,
			Scheduler: SchedulerConfig{
				Mode:  SchedFAIR,
				Pools: []PoolSpec{{Name: "a", Weight: 2, MinShare: 4}, {Name: "b", Weight: 1}},
			},
			Listeners: []Listener{elw},
		})
		if err != nil {
			t.Fatal(err)
		}
		pipes := make([]*RDD[KV[int, int]], n)
		for i := range pipes {
			pipes[i] = heavyPipeline(c, fmt.Sprintf("s%d", i), 16, 350_000, nil)
		}

		// Poll the snapshot while jobs are in flight: it must only ever hold
		// completed jobs (never more than have finished, each fully formed).
		stop := make(chan struct{})
		var pollWG sync.WaitGroup
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, jm := range c.Jobs() {
					if jm.Action == "" || jm.Stages == 0 || jm.Tasks == 0 {
						t.Errorf("mid-flight snapshot exposed partial JobMetrics: %+v", jm)
						return
					}
				}
			}
		}()

		var wg sync.WaitGroup
		for i := range pipes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pool := "a"
				if i%2 == 1 {
					pool = "b"
				}
				_, err := c.Submit(Submission{Pool: pool}, func() error {
					out, err := Collect(pipes[i])
					if err != nil {
						return err
					}
					total := 0
					for _, kv := range out {
						total += kv.V
					}
					if total != 64 { // 64 input elements survive the count-sum chain
						return fmt.Errorf("job %d: value sum = %d, want 64", i, total)
					}
					return nil
				})
				if err != nil {
					t.Errorf("concurrent job %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		close(stop)
		pollWG.Wait()

		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		jobs := c.Jobs()
		if len(jobs) != n {
			t.Fatalf("want %d completed jobs in snapshot, got %d", n, len(jobs))
		}
		return perJobLogs(t, buf.Bytes()), jobs
	}

	logs1, _ := run()
	logs2, _ := run()
	if len(logs1) != n {
		t.Fatalf("want %d per-job logs, got %d", n, len(logs1))
	}
	for key, l1 := range logs1 {
		l2, ok := logs2[key]
		if !ok {
			t.Errorf("job %q missing from second run", key)
			continue
		}
		if l1 != l2 {
			t.Errorf("event log for job %q differs between seeded runs:\nrun1:\n%s\nrun2:\n%s",
				key, firstDiffLines(l1, l2), firstDiffLines(l2, l1))
		}
	}
}

// firstDiffLines returns the first few lines where a differs from b, for
// readable failure output.
func firstDiffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			end := i + 3
			if end > len(al) {
				end = len(al)
			}
			return strings.Join(al[i:end], "\n")
		}
	}
	return "(prefix equal; lengths differ)"
}

// TestJobsSnapshotExcludesInFlight pins the snapshot guarantee with one
// deterministic job: while the job's stages complete, Jobs() must not contain
// it; after its JobEnd it must.
func TestJobsSnapshotExcludesInFlight(t *testing.T) {
	var c *Context
	label := "snapshot-probe"
	sawMidFlight := false
	probe := ListenerFunc(func(ev Event) {
		if e, ok := ev.(*StageCompleted); ok && strings.Contains(e.RDD, label) {
			sawMidFlight = true
			for _, jm := range c.Jobs() {
				if strings.Contains(jm.RDD, label) {
					t.Errorf("in-flight job leaked into Jobs() at stage %d: %+v", e.Stage, jm)
				}
			}
		}
	})
	c, err := New(Config{Cluster: concTestCluster(), Seed: 3, Listeners: []Listener{probe}})
	if err != nil {
		t.Fatal(err)
	}
	r := Map(Parallelize(c, seq(100), 4), label, func(x int) int { return x })
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	if !sawMidFlight {
		t.Fatal("probe listener never fired")
	}
	found := false
	for _, jm := range c.Jobs() {
		found = found || strings.Contains(jm.RDD, label)
	}
	if !found {
		t.Error("completed job missing from Jobs() snapshot")
	}
}

// TestRunInPoolAttribution checks scope stamping end to end: JobStart events
// and spans carry the submitting goroutine's pool, a nested Submit collects
// its own spans and restores the outer scope on return, and submissions
// outside any scope land in the default pool and in nobody's spans.
func TestRunInPoolAttribution(t *testing.T) {
	var pools []string
	rec := ListenerFunc(func(ev Event) {
		if e, ok := ev.(*JobStart); ok {
			pools = append(pools, e.Pool)
		}
	})
	c, err := New(Config{Cluster: concTestCluster(), Seed: 5, Listeners: []Listener{rec}})
	if err != nil {
		t.Fatal(err)
	}
	count := func() error {
		_, err := Count(Parallelize(c, seq(10), 2))
		return err
	}
	spanPools := func(spans []JobSpan) (out []string) {
		for _, sp := range spans {
			out = append(out, sp.Pool)
		}
		return out
	}
	if err := count(); err != nil { // no scope → default
		t.Fatal(err)
	}
	var inner []JobSpan
	outer, err := c.Submit(Submission{Pool: "outer"}, func() error {
		if err := count(); err != nil { // outer
			return err
		}
		var err error
		if inner, err = c.Submit(Submission{Pool: "inner"}, count); err != nil { // inner
			return err
		}
		return count() // back to outer
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := count(); err != nil { // the scope is gone → default again
		t.Fatal(err)
	}
	want := []string{DefaultPool, "outer", "inner", "outer", DefaultPool}
	if fmt.Sprint(pools) != fmt.Sprint(want) {
		t.Errorf("JobStart pools = %v, want %v", pools, want)
	}
	if got := fmt.Sprint(spanPools(outer), spanPools(inner)); got != "[outer outer] [inner]" {
		t.Errorf("outer and inner span pools = %s, want [outer outer] [inner]", got)
	}
}

// TestCacheDropRacesConcurrentJobs stress-tests the memory manager's
// dropRDD/dropExecutor paths racing live jobs that share a cached lineage
// (race detector on: `go test -race` runs this). Worker goroutines repeatedly
// run a shuffle job over one cached RDD while a dropper goroutine unpersists
// it mid-flight (dropRDD) and two executors die partway through
// (dropExecutor). Every job must still produce the correct sums — dropped
// cache recomputes from lineage — and the manager must account a consistent
// non-negative byte total afterwards.
func TestCacheDropRacesConcurrentJobs(t *testing.T) {
	c, err := New(Config{Cluster: concTestCluster(), Seed: 5, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	cached := Map(Parallelize(c, seq(4000), 8), "shared", func(x int) int { return x * 3 }).Cache()
	pipeline := ReduceByKey(
		Map(cached, "key", func(x int) KV[int, int] { return KV[int, int]{K: x % 16, V: x} }),
		func(a, b int) int { return a + b }, 8)
	var want int
	for x := 0; x < 4000; x++ {
		want += x * 3
	}

	const workers, iters = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				out, err := Collect(pipeline)
				if err != nil {
					errs <- err
					return
				}
				total := 0
				for _, kv := range out {
					total += kv.V
				}
				if total != want {
					errs <- fmt.Errorf("sum = %d, want %d", total, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2*iters; i++ {
			cached.Unpersist()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range []int{1, 3} {
			time.Sleep(2 * time.Millisecond)
			if err := c.FailExecutor(id); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.blocks.totalBytes() < 0 {
		t.Fatalf("memory manager accounts %d bytes", c.blocks.totalBytes())
	}
}

// TestParseSchedulerMode pins "any case": a mixed-case spelling parses, and
// anything that is not one of the two modes is rejected.
func TestParseSchedulerMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SchedulerMode
		ok   bool
	}{
		{"fifo", SchedFIFO, true},
		{"FAIR", SchedFAIR, true},
		{"fAiR", SchedFAIR, true},
		{"", 0, false},
		{"round-robin", 0, false},
	} {
		got, err := ParseSchedulerMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSchedulerMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
