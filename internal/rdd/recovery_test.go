// Tests for the recovery layer: task retries, executor exclusion, map-stage
// resubmission after shuffle-output loss, failure plans, and deterministic
// fault injection.

package rdd

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/replaytest"
)

// shuffledSum builds the canonical two-stage workload: 64 input elements in 8
// map partitions, reduced by key into 8 partitions.
func shuffledSum(c *Context) *RDD[KV[int, int]] {
	in := make([]KV[int, int], 64)
	for i := range in {
		in[i] = KV[int, int]{K: i % 16, V: i}
	}
	return ReduceByKey(Parallelize(c, in, 8), func(a, b int) int { return a + b }, 8)
}

func wantShuffledSum() map[int]int {
	want := map[int]int{}
	for i := 0; i < 64; i++ {
		want[i%16] += i
	}
	return want
}

func TestNodeLossResubmitsMapStage(t *testing.T) {
	c := newTestContext(t, 4)
	r := shuffledSum(c)
	want, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}

	// Losing a whole machine destroys its shuffle outputs (the external
	// shuffle service dies with it), unlike a bare executor loss.
	if err := c.failNode(0); err != nil {
		t.Fatal(err)
	}

	got, err := CollectAsMap(r)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("post-recovery result differs at key %d: %d != %d", k, got[k], v)
		}
	}

	jobs := c.Jobs()
	m := jobs[len(jobs)-1]
	if m.StageAttempts == 0 {
		t.Fatalf("no stage re-attempt recorded after losing map outputs: %+v", m)
	}
	if m.RecomputedPartitions == 0 {
		t.Fatalf("no recomputed partitions recorded: %+v", m)
	}
	if m.Stages < 2 {
		t.Fatalf("resubmission should add a map stage, got %d stages", m.Stages)
	}
	if m.RecoverySeconds <= 0 {
		t.Fatalf("recovery virtual time not charged: %+v", m)
	}
}

func TestMidJobNodeLossRecovers(t *testing.T) {
	c := newTestContext(t, 4)
	c.failNodeAfter(0, 5)
	got, err := CollectAsMap(shuffledSum(c))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range wantShuffledSum() {
		if got[k] != v {
			t.Fatalf("result differs at key %d: %d != %d", k, got[k], v)
		}
	}
	for _, id := range c.cluster.ExecutorsOnNode(0) {
		if c.cluster.Live(id) {
			t.Fatal("node-loss plan did not fire")
		}
	}
	jobs := c.Jobs()
	m := jobs[len(jobs)-1]
	if m.StageAttempts == 0 && m.TaskRetries == 0 {
		t.Fatalf("mid-job node loss left no recovery trace: %+v", m)
	}
}

func TestTaskRetrySucceeds(t *testing.T) {
	c := newTestContext(t, 2)
	var mu sync.Mutex
	attempts := 0
	r := Map(Parallelize(c, seq(8), 8), "flaky", func(x int) int {
		if x == 3 {
			mu.Lock()
			attempts++
			n := attempts
			mu.Unlock()
			if n <= 2 {
				panic(fmt.Sprintf("transient failure %d", n))
			}
		}
		return x * 10
	})
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	jobs := c.Jobs()
	if retries := jobs[len(jobs)-1].TaskRetries; retries != 2 {
		t.Fatalf("TaskRetries = %d, want 2", retries)
	}
}

func TestTaskRetryExhaustionAborts(t *testing.T) {
	c := newTestContext(t, 2)
	r := Map(Parallelize(c, seq(8), 8), "doomed", func(x int) int {
		if x == 5 {
			panic("permanent failure")
		}
		return x
	})
	_, err := Collect(r)
	if err == nil {
		t.Fatal("job with a permanently failing task did not abort")
	}
	var ta *TaskAbortedError
	if !errors.As(err, &ta) {
		t.Fatalf("error is %T (%v), want *TaskAbortedError", err, err)
	}
	if ta.Attempts != 4 {
		t.Fatalf("aborted after %d attempts, want the default task.maxFailures of 4", ta.Attempts)
	}
	if ta.Part != 5 {
		t.Fatalf("aborted partition %d, want 5", ta.Part)
	}
}

func TestExecutorExclusionAfterFailures(t *testing.T) {
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every partition's first attempt fails: eight tasks over four executors
	// charge each executor excludeAfterFailures (2) failures in one wave.
	var mu sync.Mutex
	failed := map[int]bool{}
	r := Map(Parallelize(c, seq(8), 8), "flaky", func(x int) int {
		mu.Lock()
		first := !failed[x]
		failed[x] = true
		mu.Unlock()
		if first {
			panic(fmt.Sprintf("transient failure of %d", x))
		}
		return x
	})
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	// All four reached the threshold; the last schedulable executor is never
	// excluded, and it ran the retries.
	excluded := c.excludedExecutors()
	if len(excluded) != 3 {
		t.Fatalf("excluded executors = %v, want 3 of the 4", excluded)
	}
	for _, id := range excluded {
		if !c.cluster.Live(id) {
			t.Fatalf("excluded executor %d is dead; exclusion is for live flaky hosts", id)
		}
	}
}

func TestMultipleFailurePlansQueue(t *testing.T) {
	c := newTestContext(t, 3)
	c.FailExecutorAfter(0, 5)
	c.FailExecutorAfter(1, 10)
	got, err := Collect(Map(Parallelize(c, seq(200), 50), "x2", func(x int) int { return 2 * x }))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if c.cluster.Live(0) || c.cluster.Live(1) {
		t.Fatalf("queued failure plans did not both fire (live: 0=%v 1=%v)",
			c.cluster.Live(0), c.cluster.Live(1))
	}
}

// chaosRun executes the canonical workload under a fault profile across the
// Workers matrix, checking every run's answer against the truth.
func chaosRun(t *testing.T, cfg Config) replaytest.Observation {
	t.Helper()
	return workersMatrix(t, cfg, func(c *Context) string {
		out, err := CollectAsMap(shuffledSum(c))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range wantShuffledSum() {
			if out[k] != v {
				t.Fatalf("chaos result differs from truth at key %d: %d != %d", k, out[k], v)
			}
		}
		return fmt.Sprint(out)
	})
}

func TestFaultInjectionDeterministic(t *testing.T) {
	cfg := Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:    7,
		Faults:  FaultProfile{TaskCrashProb: 0.15, FetchFailureProb: 0.1, StragglerProb: 0.1},
	}
	chaos := chaosRun(t, cfg)
	// The profile is aggressive enough that a run without any recovery work
	// means injection silently stopped firing.
	cfg.Faults = FaultProfile{}
	if clean := chaosRun(t, cfg); chaos.Fingerprint == clean.Fingerprint {
		t.Fatal("chaos fingerprint identical to fault-free fingerprint; no faults injected")
	}
}

func TestInjectedFetchFailureRecovers(t *testing.T) {
	obs := chaosRun(t, Config{
		Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
		Seed:    7,
		Faults:  FaultProfile{FetchFailureProb: 0.5},
	})
	if !strings.Contains(obs.Log, `"type":"StageResubmitted"`) {
		t.Fatalf("50%% fetch-failure probability produced no stage re-attempts:\n%s", obs.Fingerprint)
	}
}

func TestStageAttemptExhaustionAborts(t *testing.T) {
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
		Seed:    7,
		Faults:  FaultProfile{FetchFailureProb: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = CollectAsMap(shuffledSum(c))
	if err == nil {
		t.Fatal("certain fetch failure on every attempt did not abort the job")
	}
	var sa *StageAbortedError
	if !errors.As(err, &sa) {
		t.Fatalf("error is %T (%v), want *StageAbortedError", err, err)
	}
	if sa.Attempts != maxStageAttempts {
		t.Fatalf("aborted after %d stage attempts, want maxStageAttempts = %d", sa.Attempts, maxStageAttempts)
	}
}

func TestStragglerSlowsVirtualTime(t *testing.T) {
	run := func(faults FaultProfile) float64 {
		c, err := New(Config{
			Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
			Seed:    7,
			// Neutralise the fixed per-stage overhead so the measured ratio
			// reflects task durations, which stragglers stretch.
			StageOverheadSec: 1e-9,
			Faults:           faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(Parallelize(c, seq(100), 20)); err != nil {
			t.Fatal(err)
		}
		return c.VirtualTime()
	}
	clean := run(FaultProfile{})
	slowed := run(FaultProfile{StragglerProb: 1})
	if slowed < clean*4 {
		t.Fatalf("every-task straggler x8 raised virtual time only %.4fs -> %.4fs", clean, slowed)
	}
}

// TestNodeLossBetweenMapStageAndConsumer loses a node exactly between a map
// stage and the stage that reads it: the plan comes due when the map stage's
// last task ends and fires at the stage's closing wave boundary — after every
// output was registered, before the consumer fetches one. The consumer's fetch
// failure resubmits the map stage, the result is the undisturbed run's, and
// the whole sequence replays bit for bit across the Workers matrix.
func TestNodeLossBetweenMapStageAndConsumer(t *testing.T) {
	const mapParts = 8
	work := func(c *Context) string {
		pairs := Map(Parallelize(c, seq(2000), mapParts), "hot", func(i int) KV[int, int] {
			if i%10 != 0 {
				return KV[int, int]{K: 0, V: i}
			}
			return KV[int, int]{K: 1 + i%7, V: i}
		}).SetSizeHint(4096)
		out, err := Collect(GroupByKey(pairs, 8))
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(out)
	}
	cfg := Config{Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge}, Seed: 5}
	undisturbed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := work(undisturbed)

	cfg.Faults = FaultProfile{NodeLoss: []NodeLoss{{Node: 0, AfterTasks: mapParts}}}
	obs := workersMatrix(t, cfg, work)
	if obs.Result != want {
		t.Fatalf("result changed by the node loss:\n%.200s\nwant\n%.200s", obs.Result, want)
	}
	events, err := ReadEventLog(strings.NewReader(obs.Log))
	if err != nil {
		t.Fatal(err)
	}
	mapDone, lost, resubmitted := false, false, false
	for _, ev := range events {
		switch e := ev.(type) {
		case *StageCompleted:
			if e.Stage != 0 && e.Round == 0 {
				mapDone = !e.Failed
			}
		case *NodeLost:
			lost = true
		case *StageSubmitted:
			if e.Stage == 0 && e.Round == 0 && !lost {
				t.Fatal("the consumer stage was submitted before the node loss: the plan did not fire at the map stage's boundary")
			}
		case *StageResubmitted:
			resubmitted = true
		}
	}
	if !mapDone || !lost || !resubmitted {
		t.Fatalf("map stage completed %v, node lost %v, map stage resubmitted %v: want all three", mapDone, lost, resubmitted)
	}
}

func TestCollectNotReplayedOnStageRetry(t *testing.T) {
	// The result stage re-runs only unvisited partitions after a fetch
	// failure: no partition is evaluated, and so none delivered, twice.
	// Injected fetch failures hit some result tasks of the first round and
	// spare others, which is the case the rule is about.
	var mu sync.Mutex
	resultTasks := map[int]int{} // partition → successful result-stage tasks
	firstRound := 0              // of those, how many ran before any resubmission
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:    7,
		Faults:  FaultProfile{FetchFailureProb: 0.4},
		Listeners: []Listener{ListenerFunc(func(ev Event) {
			if e, ok := ev.(*TaskEnd); ok && e.Stage == 0 && e.OK {
				mu.Lock()
				resultTasks[e.Part]++
				if e.Round == 0 {
					firstRound++
				}
				mu.Unlock()
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := shuffledSum(c)
	out, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Jobs()[0]; m.StageAttempts == 0 || firstRound == 0 || firstRound == r.Partitions() {
		t.Fatalf("fixture: %d resubmissions, %d of %d result tasks done in the first round; want some but not all",
			m.StageAttempts, firstRound, r.Partitions())
	}
	seen := map[int]int{}
	for _, kv := range out {
		seen[kv.K]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d delivered %d times across stage re-attempts, want 1", k, n)
		}
	}
	if len(seen) != len(wantShuffledSum()) {
		t.Fatalf("%d keys delivered, want %d", len(seen), len(wantShuffledSum()))
	}
	for p := 0; p < r.Partitions(); p++ {
		if resultTasks[p] != 1 {
			t.Fatalf("result partition %d evaluated %d times across stage re-attempts, want 1", p, resultTasks[p])
		}
	}
}
