// Tests for the shuffle cleaner: a shuffle's map outputs go once no lineage
// can reach its dependency, and never while one can — a held RDD keeps its
// outputs through forced collections, and a node lost after a cleaned job
// still recovers by resubmitting the held shuffle's map stage — and the
// map-side combine's one-map-per-task buckets against the one-map-per-bucket
// construction they replaced.

package rdd

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"sparkscore/internal/cluster"
)

// outputsOf counts the map outputs registered for one shuffle.
func outputsOf(c *Context, shuffle int) int {
	c.shuffle.mu.Lock()
	defer c.shuffle.mu.Unlock()
	n := 0
	for _, mo := range c.shuffle.outputs[shuffle] {
		if mo != nil {
			n++
		}
	}
	return n
}

// runDroppedShuffle runs shuffledSum once and lets go of the RDD, returning
// its shuffle id; no frame of the caller holds the lineage afterwards.
func runDroppedShuffle(t *testing.T, c *Context) int {
	t.Helper()
	r := shuffledSum(c)
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	return r.n.shuffleIn[0].id
}

func TestCleanerFreesUnreachableShuffles(t *testing.T) {
	c := newTestContext(t, 3)
	func() {
		in := make([]KV[int, int], 40)
		for i := range in {
			in[i] = KV[int, int]{K: i % 7, V: i}
		}
		pairs := Parallelize(c, in, 4)
		sums := ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)
		groups := GroupByKey(pairs, 3)
		if _, err := Collect(Join(sums, groups, 2)); err != nil {
			t.Fatal(err)
		}
	}()
	// Four shuffles: the reduce and the group (4 map partitions each), and
	// the join's two sides (4 and 3).
	if got := c.shuffle.retained(); got != 15 {
		t.Fatalf("%d map outputs retained after the job, want 15", got)
	}
	if c.blocks.shuffleResidentBytes() == 0 {
		t.Fatal("retained outputs account no resident bytes; the release is unobservable")
	}
	AwaitCleanups(t, "four unreachable shuffles", func() bool { return c.shuffle.retained() == 0 })
	if b := c.blocks.shuffleResidentBytes(); b != 0 {
		t.Fatalf("%d shuffle-resident bytes still accounted after the cleanup", b)
	}
}

// TestCleanerKeepsReachableShuffle holds a ReduceByKey result through forced
// collections — long enough for a dropped shuffle's cleanup to run — and
// shows a second action still skips the held shuffle's map stage.
func TestCleanerKeepsReachableShuffle(t *testing.T) {
	c := newTestContext(t, 2)
	var submitted atomic.Int64
	c.AddListener(ListenerFunc(func(ev Event) {
		if _, ok := ev.(*StageSubmitted); ok {
			submitted.Add(1)
		}
	}))
	r := shuffledSum(c)
	want, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}
	held := r.n.shuffleIn[0].id
	dropped := runDroppedShuffle(t, c)
	AwaitCleanups(t, "the dropped shuffle", func() bool { return outputsOf(c, dropped) == 0 })
	if got := outputsOf(c, held); got != 8 {
		t.Fatalf("held shuffle keeps %d of its 8 map outputs after forced collections", got)
	}

	submitted.Store(0)
	got, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := submitted.Load(); n != 1 {
		t.Fatalf("second action submitted %d stages, want 1: the held map stage re-ran", n)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: %d after the collections, %d before", k, got[k], v)
		}
	}
}

// TestNodeLossAfterCleanedJobRecovers loses a node after the cleaner freed
// another job's shuffle, under injected task crashes and fetch failures: the
// held shuffle's lost outputs come back by map-stage resubmission, so the
// cleaner freed nothing a later stage attempt needs.
func TestNodeLossAfterCleanedJobRecovers(t *testing.T) {
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:    7,
		Faults:  FaultProfile{TaskCrashProb: 0.05, FetchFailureProb: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := shuffledSum(c)
	if _, err := CollectAsMap(r); err != nil {
		t.Fatal(err)
	}
	dropped := runDroppedShuffle(t, c)
	AwaitCleanups(t, "the dropped shuffle", func() bool { return outputsOf(c, dropped) == 0 })

	if err := c.failNode(0); err != nil {
		t.Fatal(err)
	}
	got, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range wantShuffledSum() {
		if got[k] != v {
			t.Fatalf("post-recovery result differs at key %d: %d != %d", k, got[k], v)
		}
	}
	jobs := c.Jobs()
	if m := jobs[len(jobs)-1]; m.StageAttempts == 0 || m.RecomputedPartitions == 0 {
		t.Fatalf("no map-stage resubmission after losing node 0: %+v", m)
	}
}

func TestCleanerDeletesSpilledRuns(t *testing.T) {
	c, err := New(Config{Cluster: cappedCluster(), Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	func() {
		pairs := Map(Parallelize(c, seq(40000), 4), "fkey", floatKV)
		sums := ReduceByKey(pairs, func(a, b float64) float64 { return a + b }, 4)
		if _, err := Collect(sums); err != nil {
			t.Fatal(err)
		}
		c.shuffle.mu.Lock()
		for _, mo := range c.shuffle.outputs[sums.n.shuffleIn[0].id] {
			for _, run := range mo.runs {
				files = append(files, run.file)
			}
		}
		c.shuffle.mu.Unlock()
	}()
	if len(files) == 0 {
		t.Fatal("the capped shuffle spilled no runs")
	}
	for _, f := range files {
		if !c.FS().Exists(f) {
			t.Fatalf("run file %s missing while its shuffle is retained", f)
		}
	}
	AwaitCleanups(t, "the spilled shuffle's run files", func() bool {
		for _, f := range files {
			if c.FS().Exists(f) {
				return false
			}
		}
		return true
	})
	if got := c.shuffle.retained(); got != 0 {
		t.Fatalf("%d map outputs retained after the run files went", got)
	}
}

// perBucketMaps is the map-side combine built the way mapBuckets replaced:
// one orderedMap per reduce bucket, each bucket's pairs in first-insertion
// order. Without combine the pairs are appended per bucket in arrival order.
func perBucketMaps[K comparable, V any](pairs []KV[K, V], parts int, combine func(V, V) V) [][]KV[K, V] {
	buckets := make([][]KV[K, V], parts)
	if combine == nil {
		for _, kv := range pairs {
			i := hashPartition(kv.K, parts)
			buckets[i] = append(buckets[i], kv)
		}
		return buckets
	}
	maps := make([]*orderedMap[K, V], parts)
	for i := range maps {
		maps[i] = newOrderedMap[K, V]()
	}
	for _, kv := range pairs {
		b := maps[hashPartition(kv.K, parts)]
		if old, ok := b.get(kv.K); ok {
			b.set(kv.K, combine(old, kv.V))
		} else {
			b.set(kv.K, kv.V)
		}
	}
	for i, b := range maps {
		buckets[i] = b.pairs()
	}
	return buckets
}

func assertSameBuckets[K comparable](t *testing.T, label string, got, want [][]KV[K, float64]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d", label, len(got), len(want))
	}
	for b := range want {
		if len(got[b]) != len(want[b]) {
			t.Fatalf("%s: bucket %d holds %d pairs, want %d", label, b, len(got[b]), len(want[b]))
		}
		for i, kv := range want[b] {
			if got[b][i].K != kv.K || math.Float64bits(got[b][i].V) != math.Float64bits(kv.V) {
				t.Fatalf("%s: bucket %d pair %d = %v, want bitwise %v", label, b, i, got[b][i], kv)
			}
		}
	}
}

// TestMapBucketsMatchPerBucketMaps pins mapBuckets to perBucketMaps in keys,
// order and value bits for 1 … 16 reduce partitions: keys repeat and share
// buckets, the values span magnitudes so any other fold order changes bits,
// and one combiner is not even commutative, so it pins the arrival order
// each key's fold runs in.
func TestMapBucketsMatchPerBucketMaps(t *testing.T) {
	ints := make([]KV[int, float64], 3000)
	strs := make([]KV[string, float64], len(ints))
	for i := range ints {
		v := 1 / float64(i+1)
		if i%7 == 0 {
			v = 1e16 * float64(i%3-1)
		}
		ints[i] = KV[int, float64]{K: i * i % 97, V: v}
		strs[i] = KV[string, float64]{K: fmt.Sprint(i % 53), V: v}
	}
	combiners := map[string]func(a, b float64) float64{
		"sum":           func(a, b float64) float64 { return a + b },
		"non-commuting": func(a, b float64) float64 { return 0.5*a + b },
		"none":          nil,
	}
	for parts := 1; parts <= 16; parts++ {
		for name, combine := range combiners {
			label := fmt.Sprintf("%d parts, %s", parts, name)
			assertSameBuckets(t, "int keys, "+label, mapBuckets(ints, parts, combine), perBucketMaps(ints, parts, combine))
			assertSameBuckets(t, "string keys, "+label, mapBuckets(strs, parts, combine), perBucketMaps(strs, parts, combine))
		}
	}
}
