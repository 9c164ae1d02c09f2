package rdd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sparkscore/internal/cluster"
)

// countingRDD builds an RDD whose compute increments a counter, to observe
// cache hits versus lineage recomputation.
func countingRDD(c *Context, n, parts int, computed *atomic.Int64) *RDD[int] {
	base := Parallelize(c, seq(n), parts)
	return Map(base, "counted", func(x int) int {
		computed.Add(1)
		return x * 10
	})
}

func TestCacheAvoidsRecompute(t *testing.T) {
	c := newTestContext(t, 2)
	var computed atomic.Int64
	r := countingRDD(c, 40, 4, &computed).Cache()
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	first := computed.Load()
	if first != 40 {
		t.Fatalf("first action computed %d elements, want 40", first)
	}
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if computed.Load() != first {
		t.Fatalf("cached RDD recomputed: %d -> %d", first, computed.Load())
	}
	jobs := c.Jobs()
	if jobs[len(jobs)-1].CacheReadBytes == 0 {
		t.Fatal("second action recorded no cache reads")
	}
}

func TestUncachedRecomputesEveryAction(t *testing.T) {
	c := newTestContext(t, 2)
	var computed atomic.Int64
	r := countingRDD(c, 40, 4, &computed)
	Collect(r)
	Collect(r)
	if computed.Load() != 80 {
		t.Fatalf("uncached RDD computed %d element-visits, want 80", computed.Load())
	}
}

func TestUnpersistRestoresRecompute(t *testing.T) {
	c := newTestContext(t, 2)
	var computed atomic.Int64
	r := countingRDD(c, 20, 2, &computed).Cache()
	Collect(r)
	r.Unpersist()
	if c.CachedBytes() != 0 {
		t.Fatalf("%d bytes still cached after Unpersist", c.CachedBytes())
	}
	Collect(r)
	if computed.Load() != 40 {
		t.Fatalf("computed %d element-visits, want 40 after Unpersist", computed.Load())
	}
}

func TestCacheSurvivesDerivedUse(t *testing.T) {
	// A downstream map over a cached parent must read the cache, not the
	// parent's lineage.
	c := newTestContext(t, 2)
	var computed atomic.Int64
	parent := countingRDD(c, 30, 3, &computed).Cache()
	Collect(parent)
	child := Map(parent, "plus", func(x int) int { return x + 1 })
	got, err := Collect(child)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 30 {
		t.Fatalf("derived action recomputed the cached parent (%d visits)", computed.Load())
	}
	if got[0] != 1 {
		t.Fatalf("got[0] = %d", got[0])
	}
}

func TestExecutorFailureRecoversFromLineage(t *testing.T) {
	c := newTestContext(t, 2)
	var computed atomic.Int64
	r := countingRDD(c, 40, 4, &computed).Cache()
	want, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every executor but one: all cached blocks on the dead ones vanish.
	live := c.cluster.LiveExecutors()
	for _, id := range live[:len(live)-1] {
		if err := c.FailExecutor(id); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("post-failure collect size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-failure results differ at %d", i)
		}
	}
	if computed.Load() == 40 {
		t.Fatal("no recomputation after losing cached blocks")
	}
}

func TestMidJobExecutorFailure(t *testing.T) {
	c := newTestContext(t, 3)
	r := Map(Parallelize(c, seq(200), 50), "x2", func(x int) int { return 2 * x })
	c.FailExecutorAfter(0, 10)
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("collected %d", len(got))
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if c.cluster.Live(0) {
		t.Fatal("failure plan did not fire")
	}
}

func TestShuffleSurvivesExecutorFailure(t *testing.T) {
	// External shuffle service semantics: map outputs outlive executors.
	c := newTestContext(t, 2)
	in := []KV[int, int]{{1, 1}, {2, 2}, {1, 3}}
	r := ReduceByKey(Parallelize(c, in, 2), func(a, b int) int { return a + b }, 2)
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if err := c.FailExecutor(0); err != nil {
		t.Fatal(err)
	}
	out, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != 4 || out[2] != 2 {
		t.Fatalf("out = %v", out)
	}
	jobs := c.Jobs()
	if jobs[len(jobs)-1].Stages != 1 {
		t.Fatal("map stage re-ran despite external shuffle service")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	c := newTestContext(t, 2)
	before := c.VirtualTime()
	if before != 0 {
		t.Fatalf("fresh context clock %v", before)
	}
	Collect(Parallelize(c, seq(10), 2))
	if c.VirtualTime() <= before {
		t.Fatal("clock did not advance")
	}
	c.ResetClock()
	if c.VirtualTime() != 0 || len(c.Jobs()) != 0 {
		t.Fatal("ResetClock did not clear state")
	}
}

func TestVirtualTimeScalesWithSlots(t *testing.T) {
	// The same 96-task stage must be faster in virtual time on 12 nodes than
	// on 1 node: per-task scheduling overhead is fixed, slots differ 12x.
	elapsed := func(nodes int) float64 {
		c, err := New(Config{
			Cluster: cluster.Config{Nodes: nodes, Spec: cluster.M3TwoXLarge},
			Seed:    7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(Parallelize(c, seq(960), 960)); err != nil {
			t.Fatal(err)
		}
		return c.VirtualTime()
	}
	oneNode, twelveNodes := elapsed(1), elapsed(12)
	if twelveNodes >= oneNode {
		t.Fatalf("1 node: %.4fs, 12 nodes: %.4fs — more nodes not faster", oneNode, twelveNodes)
	}
	if oneNode/twelveNodes < 3 {
		t.Fatalf("speedup %.2fx over 12x slots, want at least 3x", oneNode/twelveNodes)
	}
}

func TestBroadcast(t *testing.T) {
	c := newTestContext(t, 2)
	b := NewBroadcast(c, []float64{1, 2, 3}, 24)
	if got := b.Value(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("broadcast value %v", got)
	}
	before := c.VirtualTime()
	r := Map(Parallelize(c, seq(4), 2), "use", func(x int) float64 { return b.Value()[0] * float64(x) })
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if c.VirtualTime() <= before {
		t.Fatal("broadcast charge did not reach the clock")
	}
}

func TestJobMetricsRecorded(t *testing.T) {
	c := newTestContext(t, 2)
	Collect(Map(Parallelize(c, seq(10), 5), "m", func(x int) int { return x }))
	jobs := c.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs recorded", len(jobs))
	}
	m := jobs[0]
	if m.Action != "collect" || m.Tasks != 5 || m.Stages != 1 || m.VirtualSeconds <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.String() == "" {
		t.Fatal("empty metrics string")
	}
}

func TestSpillChargedWhenWorkingSetExceedsExecutionMemory(t *testing.T) {
	// Two identical workloads; the second context has tiny executors so the
	// shipped partition exceeds per-slot execution memory and incurs spill.
	run := func(memGiB float64) float64 {
		c, err := New(Config{
			Cluster: cluster.Config{
				Nodes:            1,
				Spec:             cluster.NodeSpec{Name: "tiny", VCPUs: 2, MemGiB: memGiB + 1},
				ExecutorsPerNode: 1, CoresPerExecutor: 2, MemPerExecutorGiB: memGiB,
			},
			Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := Parallelize(c, seq(100000), 2).SetSizeHint(1 << 12) // ~400 MB ship
		if _, err := Count(r); err != nil {
			t.Fatal(err)
		}
		return c.VirtualTime()
	}
	roomy := run(8)     // 8 GiB executor: fits
	cramped := run(0.1) // 100 MiB executor: spills
	if cramped <= roomy*1.5 {
		t.Fatalf("cramped %.3fs vs roomy %.3fs — spill not charged", cramped, roomy)
	}
}

func TestCacheEvictionWhenStorageFull(t *testing.T) {
	c, err := New(Config{
		Cluster: cluster.Config{
			Nodes:            1,
			Spec:             cluster.NodeSpec{Name: "tiny", VCPUs: 2, MemGiB: 1},
			ExecutorsPerNode: 1, CoresPerExecutor: 2, MemPerExecutorGiB: 0.5,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	// 20 partitions x ~80 MB each, far beyond the ~300 MB storage pool.
	base := Parallelize(c, seq(20000), 20).SetSizeHint(1 << 12)
	r := Map(base, "counted", func(x int) int { computed.Add(1); return x }).SetSizeHint(1 << 22).Cache()
	Collect(r)
	first := computed.Load()
	Collect(r)
	if computed.Load() == first {
		t.Fatal("no recomputation despite guaranteed eviction")
	}
}

func TestConcurrentJobsOnOneContext(t *testing.T) {
	// Several actions in flight at once must not corrupt each other; the
	// driver lock serialises metric/clock updates, everything else is
	// per-job state.
	c := newTestContext(t, 2)
	base := Parallelize(c, seq(500), 10).Cache()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out, err := Collect(Map(base, "add", func(x int) int { return x + w }))
			if err != nil {
				errs <- err
				return
			}
			sum := 0
			for _, x := range out {
				sum += x
			}
			want := 500*499/2 + 500*w
			if sum != want {
				errs <- fmt.Errorf("worker %d: sum %d, want %d", w, sum, want)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCacheShuffledRDD(t *testing.T) {
	// Caching an RDD downstream of a shuffle must serve later actions from
	// memory without rereading shuffle outputs.
	c := newTestContext(t, 2)
	var evaluated atomic.Int64
	in := make([]KV[int, int], 100)
	for i := range in {
		in[i] = KV[int, int]{K: i % 10, V: i}
	}
	summed := ReduceByKey(Parallelize(c, in, 4), func(a, b int) int { return a + b }, 4)
	counted := Map(summed, "count", func(kv KV[int, int]) KV[int, int] {
		evaluated.Add(1)
		return kv
	}).Cache()
	first, err := CollectAsMap(counted)
	if err != nil {
		t.Fatal(err)
	}
	n1 := evaluated.Load()
	second, err := CollectAsMap(counted)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated.Load() != n1 {
		t.Fatal("cached post-shuffle RDD recomputed")
	}
	for k, v := range first {
		if second[k] != v {
			t.Fatalf("cached result differs at key %d", k)
		}
	}
}

func TestLocalityPlacementReadsLocally(t *testing.T) {
	// Three replicas on twelve nodes make locality misses visible: a
	// placement that ignored where blocks live would read 1/4 of its input
	// locally.
	c, err := New(Config{
		Cluster:      cluster.Config{Nodes: 12, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 2 << 10,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "line-%06d\n", i)
	}
	c.FS().Write("loc.txt", []byte(sb.String()))
	r, err := c.TextFile("loc.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()
	m := jobs[len(jobs)-1]
	// Delay scheduling keeps most — not all — reads local: a node holding
	// several blocks overflows to remote executors rather than stacking its
	// own.
	if m.DFSBytes == 0 || float64(m.DFSLocalBytes)/float64(m.DFSBytes) < 0.7 {
		t.Fatalf("%d of %d DFS bytes read locally, want >= 0.7 (location-blind placement on 12 nodes gives 1/4)",
			m.DFSLocalBytes, m.DFSBytes)
	}
}

func TestMemoryAndDiskAvoidsRecompute(t *testing.T) {
	// Under MEMORY_AND_DISK, partitions that overflow executor storage are
	// demoted to disk instead of dropped: later actions read them back
	// without recomputation.
	c, err := New(Config{
		Cluster: cluster.Config{
			Nodes:            1,
			Spec:             cluster.NodeSpec{Name: "tiny", VCPUs: 2, MemGiB: 1},
			ExecutorsPerNode: 1, CoresPerExecutor: 2, MemPerExecutorGiB: 0.5,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	// 20 partitions x ~4 MB each, far beyond the ~300 MB... (same shape as
	// the MEMORY_ONLY eviction test, which does recompute).
	base := Parallelize(c, seq(20000), 20).SetSizeHint(1 << 12)
	r := Map(base, "counted", func(x int) int { computed.Add(1); return x }).
		SetSizeHint(1 << 22).Persist(MemoryAndDisk)
	want, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	first := computed.Load()
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != first {
		t.Fatalf("MEMORY_AND_DISK recomputed: %d -> %d element-visits", first, computed.Load())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("disk-served results differ at %d", i)
		}
	}
}

func TestMemoryAndDiskChargesDiskReads(t *testing.T) {
	// A second action over demoted blocks must record cache reads and cost
	// more virtual time than purely in-memory reads of the same data.
	run := func(level StorageLevel, memGiB float64) float64 {
		c, err := New(Config{
			Cluster: cluster.Config{
				Nodes:            1,
				Spec:             cluster.NodeSpec{Name: "tiny", VCPUs: 2, MemGiB: 16},
				ExecutorsPerNode: 1, CoresPerExecutor: 2, MemPerExecutorGiB: memGiB,
			},
			Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := Parallelize(c, seq(20000), 10).SetSizeHint(1 << 14).Persist(level)
		if _, err := Count(r); err != nil {
			t.Fatal(err)
		}
		c.ResetClock()
		if _, err := Count(r); err != nil {
			t.Fatal(err)
		}
		return c.VirtualTime()
	}
	inMemory := run(MemoryAndDisk, 8)    // everything fits in memory
	fromDisk := run(MemoryAndDisk, 0.01) // everything demoted to disk
	if fromDisk <= inMemory {
		t.Fatalf("disk-served action %.4fs not slower than memory-served %.4fs", fromDisk, inMemory)
	}
}

func TestPersistRejectsUnknownLevel(t *testing.T) {
	c := newTestContext(t, 1)
	r := Parallelize(c, seq(4), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown storage level accepted")
		}
	}()
	r.Persist(StorageLevel(9))
}
