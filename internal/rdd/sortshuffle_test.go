// Sort-shuffle acceptance pins: bitwise agreement with a sequential fold of
// the input — the fold-order contract of sortshuffle.go written out without a
// shuffle — at two scales and under the chaos fault profile, and
// spill-and-complete under a memory cap below the shuffle working set (with
// byte-identical event logs across seeded replays).

package rdd

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
)

// floatKV is the fold-order-sensitive input pair: sums of 1/(x+1) change bits
// with any change in pair order or fold tree.
func floatKV(x int) KV[int, float64] {
	return KV[int, float64]{K: x % 31, V: 1.0 / float64(x+1)}
}

// floatShuffleResult runs a float64 pipeline whose ReduceByKey sums are
// sensitive to fold order — any change in pair order or fold tree shows up in
// the result bits — followed by a Join (non-combining shuffle coverage).
func floatShuffleResult(t *testing.T, cfg Config, n, parts int) ([]KV[int, JoinPair[float64, float64]], *Context) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := Map(Parallelize(c, seq(n), parts), "fkey", floatKV)
	sums := ReduceByKey(pairs, func(a, b float64) float64 { return a + b }, parts)
	weights := Map(Parallelize(c, seq(31), 2), "wkey", func(k int) KV[int, float64] {
		return KV[int, float64]{K: k, V: float64(k) * 0.1}
	})
	out, err := Collect(Join(sums, weights, parts))
	if err != nil {
		t.Fatal(err)
	}
	return out, c
}

func assertBitwiseEqual(t *testing.T, got, want []KV[int, JoinPair[float64, float64]], label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].K != want[i].K ||
			math.Float64bits(got[i].V.Left) != math.Float64bits(want[i].V.Left) ||
			math.Float64bits(got[i].V.Right) != math.Float64bits(want[i].V.Right) {
			t.Fatalf("%s: result %d = %+v, want bitwise %+v", label, i, got[i], want[i])
		}
	}
}

// sequentialFold is the oracle: floatKV(0..n-1) cut into map partitions the
// way Parallelize cuts them and folded in (map partition, arrival) order.
// twoLevel is the tree ReduceByKey documents (combine within each map
// partition, then fold the per-partition sums in partition order); groups is
// the value order GroupByKey and Join deliver. flat is the single fold a merge
// that skipped the per-output replay would produce — nothing computes it, it
// only shows the pin can tell the trees apart.
func sequentialFold(n, parts int) (twoLevel, flat map[int]float64, groups map[int][]float64) {
	twoLevel, flat, groups = map[int]float64{}, map[int]float64{}, map[int][]float64{}
	for m := 0; m < parts; m++ {
		perMap := map[int]float64{}
		for x := m * n / parts; x < (m+1)*n/parts; x++ {
			kv := floatKV(x)
			perMap[kv.K] += kv.V
			flat[kv.K] += kv.V
			groups[kv.K] = append(groups[kv.K], kv.V)
		}
		for k, v := range perMap {
			twoLevel[k] += v
		}
	}
	return twoLevel, flat, groups
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertMatchesSequentialFold runs the shuffle shapes under cfg — ReduceByKey
// joined to a weight table, then GroupByKey — compares each bitwise against
// sequentialFold, and returns how many retries and stage re-attempts the runs
// needed.
func assertMatchesSequentialFold(t *testing.T, cfg Config, n, parts int) (recoveries int) {
	t.Helper()
	twoLevel, _, groups := sequentialFold(n, parts)
	count := func(c *Context) {
		for _, m := range c.Jobs() {
			recoveries += m.TaskRetries + m.StageAttempts
		}
	}

	joined, c := floatShuffleResult(t, cfg, n, parts)
	count(c)
	if len(joined) != len(twoLevel) {
		t.Fatalf("n=%d: %d joined keys, want %d", n, len(joined), len(twoLevel))
	}
	for _, kv := range joined {
		if !sameBits(kv.V.Left, twoLevel[kv.K]) || !sameBits(kv.V.Right, float64(kv.K)*0.1) {
			t.Fatalf("n=%d: join key %d = %+v, want bitwise {%v %v}", n, kv.K, kv.V, twoLevel[kv.K], float64(kv.K)*0.1)
		}
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := Map(Parallelize(c, seq(n), parts), "fkey", floatKV)
	grouped, err := Collect(GroupByKey(pairs, parts))
	if err != nil {
		t.Fatal(err)
	}
	count(c)
	if len(grouped) != len(groups) {
		t.Fatalf("n=%d: %d groups, want %d", n, len(grouped), len(groups))
	}
	for _, kv := range grouped {
		if fmt.Sprint(kv.V) != fmt.Sprint(groups[kv.K]) {
			t.Fatalf("n=%d: group of key %d is not in (map partition, arrival) order", n, kv.K)
		}
	}
	return recoveries
}

// TestSortShuffleMatchesSequentialFold pins the fold-order contract against
// the oracle at two scales, and checks the pin can tell the documented tree
// from a flat fold.
func TestSortShuffleMatchesSequentialFold(t *testing.T) {
	cfg := Config{Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge}, Seed: 42}
	for _, n := range []int{2000, 60000} {
		assertMatchesSequentialFold(t, cfg, n, 8)
	}
	twoLevel, flat, _ := sequentialFold(60000, 8)
	distinct := false
	for k := range flat {
		distinct = distinct || !sameBits(twoLevel[k], flat[k])
	}
	if !distinct {
		t.Fatal("two-level and flat folds agree on every key; the oracle cannot tell the fold trees apart")
	}
}

// TestSortShuffleMatchesSequentialFoldUnderChaos pins the same bitwise
// agreement when task crashes and fetch failures force retries and map-stage
// recomputation.
func TestSortShuffleMatchesSequentialFoldUnderChaos(t *testing.T) {
	// Milder probabilities than the single-shuffle chaos tests: the joined
	// pipeline crosses three shuffles, and the per-stage attempt budget must
	// survive.
	recoveries := assertMatchesSequentialFold(t, Config{
		Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:    7,
		Faults:  FaultProfile{TaskCrashProb: 0.08, FetchFailureProb: 0.04},
	}, 20000, 6)
	if recoveries == 0 {
		t.Fatal("chaos profile injected no recovery work; the pin is vacuous")
	}
}

// cappedCluster is one executor whose pool (~107 KB) sits well below the
// ~160 KB per-task shuffle buffer the capped test builds, so map tasks must
// spill.
func cappedCluster() cluster.Config {
	return cluster.Config{
		Nodes:             1,
		Spec:              cluster.NodeSpec{Name: "capped", VCPUs: 4, MemGiB: 1},
		ExecutorsPerNode:  1,
		CoresPerExecutor:  4,
		MemPerExecutorGiB: 0.0001,
	}
}

// TestSortShuffleSpillsAndMatchesUncapped pins the tentpole property: with
// executor memory capped below the shuffle working set — the uncapped run's
// largest per-task buffer exceeds the whole capped pool, so no resident-only
// shuffle could have fit — map tasks spill runs, every shuffle shape
// completes, and the results are bitwise identical to an uncapped run and to
// the sequential fold; two capped seeded replays write byte-identical event
// logs, spills included.
func TestSortShuffleSpillsAndMatchesUncapped(t *testing.T) {
	const n, parts = 40000, 4
	var taskBufferPeak int64
	probe := ListenerFunc(func(ev Event) {
		if e, ok := ev.(*TaskEnd); ok && e.Metrics.ShuffleBufferBytes > taskBufferPeak {
			taskBufferPeak = e.Metrics.ShuffleBufferBytes
		}
	})
	ample, _ := floatShuffleResult(t, Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge}, Seed: 42, Listeners: []Listener{probe},
	}, n, parts)

	// Workers: 1 serialises host-side execution: memory-manager denials, and
	// with them spill points, are a pure function of the config.
	cappedCfg := Config{Cluster: cappedCluster(), Seed: 42, Workers: 1}
	run := func() ([]KV[int, JoinPair[float64, float64]], *Context, string) {
		var buf bytes.Buffer
		elw := NewEventLogWriter(&buf)
		cfg := cappedCfg
		cfg.Listeners = []Listener{elw}
		out, c := floatShuffleResult(t, cfg, n, parts)
		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		return out, c, buf.String()
	}

	capped, c, log1 := run()
	assertBitwiseEqual(t, capped, ample, "capped sort vs uncapped")
	if pool := c.blocks.stores[0].pool; taskBufferPeak <= pool {
		t.Fatalf("uncapped per-task shuffle buffer peaks at %d B, within the capped pool of %d B — the cap is not below the working set", taskBufferPeak, pool)
	}

	var spills, spilledBytes, bufferBytes int64
	for _, m := range c.Jobs() {
		spills += int64(m.SpillCount)
		spilledBytes += m.SpilledBytes
		bufferBytes += m.ShuffleBufferBytes
		if m.SpillCount > 0 && m.ExecutionPeakBytes == 0 {
			t.Fatalf("job %q spilled without an execution-memory peak", m.RDD)
		}
	}
	if spills == 0 || spilledBytes == 0 {
		t.Fatalf("capped run spilled %d runs / %d bytes, want > 0", spills, spilledBytes)
	}
	if bufferBytes == 0 {
		t.Fatal("capped run reports zero shuffle-buffer bytes")
	}
	if !strings.Contains(log1, `"type":"ShuffleSpill"`) {
		t.Fatal("event log holds no ShuffleSpill events")
	}
	// A second run in one map output: the bitwise comparison above read runs
	// back to back, it did not merely read a lone run.
	if !regexp.MustCompile(`"type":"ShuffleSpill"[^\n]*"run":[1-9]`).MatchString(log1) {
		t.Fatal("no map task spilled more than one run")
	}

	_, _, log2 := run()
	if log1 != log2 {
		t.Fatal("event logs differ across seeded replays of the capped run")
	}

	// GroupByKey's buffers hold the full raw pair set (map-side combine cannot
	// shrink them): it, too, must complete under the cap, in fold order.
	assertMatchesSequentialFold(t, cappedCfg, n, parts)
}
