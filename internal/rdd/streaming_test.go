// Tests for the streaming execution core: fusion of narrow chains (one pass,
// no per-operator slice copies), materialisation accounting, map-side
// combine, and deterministic recomputation of fused chains after failures.

package rdd

import (
	"fmt"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/rng"
)

// drainChain drives a fused chain's cursor for one partition the way a task
// would, summing to keep the pass honest.
func drainChain(tc *taskContext, n *node, p int) int {
	sum := 0
	for v := range seqOf[int](n.iterate(tc, p)) {
		sum += v
	}
	return sum
}

// fusedTestChain is the canonical 3-operator narrow chain the allocation
// tests measure: map, filter, map over one partition of ints.
func fusedTestChain(c *Context, n int) *RDD[int] {
	r := Parallelize(c, seq(n), 1)
	m1 := Map(r, "double", func(x int) int { return 2 * x })
	f := Filter(m1, "mod4", func(x int) bool { return x%4 == 0 })
	return Map(f, "inc", func(x int) int { return x + 1 })
}

// TestFusedChainAllocsIndependentOfSize is the allocation-regression test for
// operator fusion. The seed path allocated an O(n) slice per narrow operator
// (a 3-op chain over 10k elements cost ~22 allocations and ~250 KB per
// drain); the fused cursor allocates only a constant handful of closures, so
// the count must not grow with the partition size.
func TestFusedChainAllocsIndependentOfSize(t *testing.T) {
	c := newTestContext(t, 1)
	allocsFor := func(n int) float64 {
		chain := fusedTestChain(c, n)
		tc := &taskContext{ctx: c}
		return testing.AllocsPerRun(20, func() {
			drainChain(tc, chain.n, 0)
		})
	}
	small, large := allocsFor(100), allocsFor(100000)
	if small != large {
		t.Fatalf("fused chain allocations grow with partition size: %v at n=100, %v at n=100000", small, large)
	}
	// A fused drain allocates per-operator closures, never per-element or
	// per-partition buffers. The bound is generous; the equality above is the
	// real regression guard.
	if large > 16 {
		t.Fatalf("fused chain drain allocated %v objects, want a small constant", large)
	}
}

// TestFusedChainMetrics checks the new accounting: a fused chain driven by a
// streaming action reports its chain length, and an uncached chain with a
// streaming action materialises nothing.
func TestFusedChainMetrics(t *testing.T) {
	c := newTestContext(t, 1)
	chain := fusedTestChain(c, 1000)
	if _, err := Count(chain); err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()
	jm := jobs[len(jobs)-1]
	if jm.MaxFusedChain != 4 {
		t.Fatalf("MaxFusedChain = %d, want 4 (source + three fused ops)", jm.MaxFusedChain)
	}
	if jm.MaterializedBytes != 0 || jm.PeakMaterializedBytes != 0 {
		t.Fatalf("streaming count materialised %d bytes (peak %d), want 0",
			jm.MaterializedBytes, jm.PeakMaterializedBytes)
	}

	// Caching in the middle of the chain is a pipeline breaker: the cache put
	// must show up as materialised bytes.
	cached := Map(fusedTestChain(c, 1000), "id", func(x int) int { return x }).Cache()
	final := Map(cached, "dec", func(x int) int { return x - 1 })
	if _, err := Count(final); err != nil {
		t.Fatal(err)
	}
	jobs = c.Jobs()
	jm = jobs[len(jobs)-1]
	if jm.MaterializedBytes == 0 || jm.PeakMaterializedBytes == 0 {
		t.Fatalf("cache put not accounted: materialized=%d peak=%d", jm.MaterializedBytes, jm.PeakMaterializedBytes)
	}
	if jm.MaxFusedChain != 6 {
		t.Fatalf("MaxFusedChain = %d, want 6", jm.MaxFusedChain)
	}
}

// TestCollectPreallocates locks in the preallocated assembly: collecting n
// elements must not reallocate the driver-side output while appending
// partitions.
func TestCollectPreallocates(t *testing.T) {
	c := newTestContext(t, 1)
	r := Parallelize(c, seq(5000), 8)
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000 || cap(got) != 5000 {
		t.Fatalf("len=%d cap=%d, want exactly 5000 (preallocated from per-partition counts)", len(got), cap(got))
	}
}

// TestFusedChainRecomputeAfterNodeLoss kills a machine under a cached fused
// chain that includes a stateful operator (a MapWithSetup whose mapper draws
// from a per-partition RNG) and checks the recomputed result is identical to
// the pre-failure one — setup runs again inside the cursor, so a replayed
// drain re-seeds and flips the same coins.
func TestFusedChainRecomputeAfterNodeLoss(t *testing.T) {
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Parallelize(c, seq(20000), 12)
	noisy := MapWithSetup(Map(base, "x3", func(x int) int { return 3 * x }), "noise", func(task Task) func(int) int {
		rr := rng.New(99).Split(uint64(task.Partition))
		return func(x int) int { return x + rr.Intn(1000) }
	})
	chain := Map(noisy, "inc", func(x int) int { return x + 1 }).Cache()

	before, err := Collect(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.failNode(0); err != nil {
		t.Fatal(err)
	}
	after, err := Collect(chain)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatal("fused chain recomputation after node loss diverged from the pre-failure result")
	}
}

// TestFusedChainChaosFingerprint replays a fused-chain job under a seeded
// fault profile across the Workers matrix: results, recovery fingerprints
// (every job's JobMetrics) and the JSONL event log must match bit for bit
// through the iterator path.
func TestFusedChainChaosFingerprint(t *testing.T) {
	workersMatrix(t, Config{
		Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:    5,
		Faults: FaultProfile{
			TaskCrashProb:    0.05,
			FetchFailureProb: 0.05,
		},
	}, func(c *Context) string {
		pairs := Map(fusedTestChain(c, 10000), "key", func(x int) KV[int, int] {
			return KV[int, int]{K: x % 17, V: x}
		})
		sums, err := Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, 6))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(sums)
	})
}

// TestMapSideCombineReducesShuffle pins what map-side combine saves, exactly:
// ReduceByKey ships one pair per (map partition, key) however many pairs went
// in, while GroupByKey over the same pairs — which cannot combine — ships
// every one.
func TestMapSideCombineReducesShuffle(t *testing.T) {
	const n, mapParts, keys = 9000, 12, 10
	c, err := New(Config{Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs := Map(Parallelize(c, seq(n), mapParts), "key", func(x int) KV[int, int] {
		return KV[int, int]{K: x % keys, V: 1}
	})
	shuffled := func() (total int64) {
		for _, m := range c.Jobs() {
			total += m.ShuffleBytes
		}
		return total
	}
	sums, err := CollectAsMap(ReduceByKey(pairs, func(a, b int) int { return a + b }, 0))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range sums {
		if v != n/keys {
			t.Fatalf("key %d summed to %d, want %d", k, v, n/keys)
		}
	}
	combined, perPair := shuffled(), pairs.n.bytesPerElem
	if want := mapParts * keys * perPair; combined != want {
		t.Fatalf("ReduceByKey shuffled %d bytes, want %d map partitions x %d keys x %d B = %d",
			combined, mapParts, keys, perPair, want)
	}
	if _, err := Collect(GroupByKey(pairs, 0)); err != nil {
		t.Fatal(err)
	}
	if raw, want := shuffled()-combined, n*perPair; raw != want {
		t.Fatalf("GroupByKey shuffled %d bytes, want all %d pairs x %d B = %d", raw, n, perPair, want)
	}
}

// TestTextFileStreamsLines checks the line cursor against the materialised
// semantics: interior blank lines kept, trailing newlines not an extra line.
func TestTextFileStreamsLines(t *testing.T) {
	c := newTestContext(t, 1)
	if _, err := c.fs.Write("lines.txt", []byte("a\n\nb\nc\n\n")); err != nil {
		t.Fatal(err)
	}
	r, err := c.TextFile("lines.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectLines(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "", "b", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lines = %q, want %q", got, want)
	}
}

// BenchmarkFusedChainDrain measures one pass of the fused 3-op chain at the
// cursor level — the number the seed's slice-per-operator path paid ~22
// allocations and ~3 O(n) copies for.
func BenchmarkFusedChainDrain(b *testing.B) {
	c := newTestContext(b, 1)
	chain := fusedTestChain(c, 10000)
	tc := &taskContext{ctx: c}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainChain(tc, chain.n, 0)
	}
}

// BenchmarkFusedChainCount measures the full streaming action (job machinery
// included) over the fused chain.
func BenchmarkFusedChainCount(b *testing.B) {
	c := newTestContext(b, 1)
	chain := fusedTestChain(c, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(chain); err != nil {
			b.Fatal(err)
		}
	}
}
