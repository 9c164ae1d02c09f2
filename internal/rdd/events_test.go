package rdd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
)

// parityGolden is the JobMetrics fingerprint of the parity workload captured
// on the pre-listener scheduler (which accumulated metrics inline): the
// metrics listener must reconstruct every field bit-for-bit from bus events.
// The third job runs under a chaos profile chosen so all recovery counters
// (TaskRetries, StageAttempts, RecomputedPartitions) are non-zero; it pins
// the recovery schedule in which an injected fetch failure destroys its
// victim only after the wave has drained, the same on every host. The
// simulated seconds are part of the golden: they are counted work, so a
// changed digit is a changed cost model, never a busy host.
const parityGolden = `rdd.JobMetrics{Action:"count", RDD:"filter:mod3(map:x2(parallelize[6000]))", Stages:1, Tasks:8, VirtualSeconds:0.054400000000000004, Ops:0, DFSBytes:0, DFSLocalBytes:0, ShuffleBytes:0, ShuffleRemoteBytes:0, CacheReadBytes:0, Evictions:0, MaterializedBytes:128000, PeakMaterializedBytes:16000, MaxFusedChain:3, SpilledBytes:0, SpillCount:0, ShuffleBufferBytes:0, ExecutionPeakBytes:0, TaskRetries:0, StageAttempts:0, RecomputedPartitions:0, RecoverySeconds:0, Cancelled:false}
rdd.JobMetrics{Action:"collect", RDD:"reduceByKey(map:key(filter:mod3(map:x2(parallelize[6000]))))", Stages:2, Tasks:12, VirtualSeconds:0.1080244, Ops:0, DFSBytes:0, DFSLocalBytes:0, ShuffleBytes:3584, ShuffleRemoteBytes:2688, CacheReadBytes:128000, Evictions:0, MaterializedBytes:4480, PeakMaterializedBytes:640, MaxFusedChain:4, SpilledBytes:0, SpillCount:0, ShuffleBufferBytes:128000, ExecutionPeakBytes:16000, TaskRetries:0, StageAttempts:0, RecomputedPartitions:0, RecoverySeconds:0, Cancelled:false}
rdd.JobMetrics{Action:"collect", RDD:"reduceByKey(map:key(map:inc(filter:mod4(map:double(parallelize[10000])))))", Stages:8, Tasks:16, VirtualSeconds:0.45333888, Ops:0, DFSBytes:0, DFSLocalBytes:0, ShuffleBytes:1088, ShuffleRemoteBytes:704, CacheReadBytes:0, Evictions:0, MaterializedBytes:6528, PeakMaterializedBytes:1088, MaxFusedChain:5, SpilledBytes:0, SpillCount:0, ShuffleBufferBytes:1280000, ExecutionPeakBytes:320000, TaskRetries:3, StageAttempts:3, RecomputedPartitions:3, RecoverySeconds:0.08000544000000001, Cancelled:false}
`

// parityFingerprint runs the fixed parity workload — a clean caching +
// shuffle pipeline, then a chaos run exercising retries and stage
// resubmissions — and renders every JobMetrics field, simulated seconds
// included, in Go syntax, bypassing the String() summary.
func parityFingerprint(t *testing.T) string {
	t.Helper()
	var fp string
	record := func(c *Context) {
		for _, m := range c.Jobs() {
			fp += fmt.Sprintf("%#v\n", m)
		}
	}

	// Clean workload: caching, cache reads, and a shuffle.
	c, err := New(Config{Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base := Parallelize(c, seq(6000), 8)
	doubled := Map(base, "x2", func(x int) int { return 2 * x })
	cached := Filter(doubled, "mod3", func(x int) bool { return x%3 == 0 }).Cache()
	if _, err := Count(cached); err != nil {
		t.Fatal(err)
	}
	pairs := Map(cached, "key", func(x int) KV[int, int] { return KV[int, int]{K: x % 7, V: x} })
	if _, err := Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)); err != nil {
		t.Fatal(err)
	}
	record(c)

	// Chaos workload: task crashes and fetch failures exercise the recovery
	// counters (same shape as TestFusedChainChaosFingerprint).
	c2, err := New(Config{
		Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:    11,
		Faults: FaultProfile{
			TaskCrashProb:    0.12,
			FetchFailureProb: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cpairs := Map(fusedTestChain(c2, 10000), "key", func(x int) KV[int, int] {
		return KV[int, int]{K: x % 17, V: x}
	})
	if _, err := Collect(ReduceByKey(cpairs, func(a, b int) int { return a + b }, 6)); err != nil {
		t.Fatal(err)
	}
	record(c2)
	return fp
}

// TestMetricsListenerParity proves the refactor moved metrics accumulation
// to the bus without changing a single number: the listener-reconstructed
// JobMetrics equal the values the pre-refactor scheduler produced inline.
func TestMetricsListenerParity(t *testing.T) {
	if fp := parityFingerprint(t); fp != parityGolden {
		t.Errorf("bus-reconstructed JobMetrics diverge from pre-refactor goldens:\ngot:\n%swant:\n%s", fp, parityGolden)
	}
}

// tinyMemCluster is a one-executor cluster whose storage pool holds ~64 KB —
// two cached 4-partition RDDs of 1000 ints cannot coexist.
func tinyMemCluster() cluster.Config {
	return cluster.Config{
		Nodes:             1,
		Spec:              cluster.NodeSpec{Name: "tiny", VCPUs: 4, MemGiB: 1},
		ExecutorsPerNode:  1,
		CoresPerExecutor:  4,
		MemPerExecutorGiB: 0.0001,
	}
}

// TestEvictionsReportedPerJob is the regression test for the Evictions bug:
// the old scheduler assigned the context-lifetime eviction count to every
// job, so a job after one with evictions re-reported them all. Evictions
// must be the per-job delta.
func TestEvictionsReportedPerJob(t *testing.T) {
	c, err := New(Config{Cluster: tinyMemCluster(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := Map(Parallelize(c, seq(1000), 4), "a", func(x int) int { return x }).Cache()
	b := Map(Parallelize(c, seq(1000), 4), "b", func(x int) int { return x + 1 }).Cache()

	if _, err := Collect(a); err != nil { // job 1: fills the store, no evictions
		t.Fatal(err)
	}
	if _, err := Collect(b); err != nil { // job 2: caching b evicts a's blocks
		t.Fatal(err)
	}
	if _, err := Collect(b); err != nil { // job 3: pure cache hits, no evictions
		t.Fatal(err)
	}

	jobs := c.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("expected 3 jobs, got %d", len(jobs))
	}
	if jobs[0].Evictions != 0 {
		t.Errorf("job 1 reported %d evictions, want 0", jobs[0].Evictions)
	}
	if jobs[1].Evictions == 0 {
		t.Error("job 2 cached over a full store but reported 0 evictions")
	}
	if jobs[2].Evictions != 0 {
		t.Errorf("job 3 did no caching but reported %d evictions (lifetime count leaked into the job)", jobs[2].Evictions)
	}
	if total := c.blocks.evictionCount(); total != jobs[0].Evictions+jobs[1].Evictions+jobs[2].Evictions {
		t.Errorf("per-job evictions sum to %d, block manager counted %d",
			jobs[0].Evictions+jobs[1].Evictions+jobs[2].Evictions, total)
	}
}

// chaosEventLogRun executes a fixed caching + shuffle workload under a
// seeded chaos profile with an event-log writer attached, returning the raw
// log bytes.
func chaosEventLogRun(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	elw := NewEventLogWriter(&buf)
	c, err := New(Config{
		Cluster:   cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:      11,
		Faults:    FaultProfile{TaskCrashProb: 0.12, FetchFailureProb: 0.2},
		Listeners: []Listener{elw},
	})
	if err != nil {
		t.Fatal(err)
	}
	cached := Map(Parallelize(c, seq(3000), 6), "x3", func(x int) int { return 3 * x }).Cache()
	if _, err := Count(cached); err != nil {
		t.Fatal(err)
	}
	cpairs := Map(fusedTestChain(c, 10000), "key", func(x int) KV[int, int] {
		return KV[int, int]{K: x % 17, V: x}
	})
	if _, err := Collect(ReduceByKey(cpairs, func(a, b int) int { return a + b }, 6)); err != nil {
		t.Fatal(err)
	}
	if err := elw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventLogDeterminism replays the chaos workload in two fresh contexts:
// the JSONL event logs must match bit for bit as written, timestamps and
// durations included, and the log must actually contain the full event vocabulary of a
// chaos run — caching, fetch failures, retries, and stage resubmissions.
func TestEventLogDeterminism(t *testing.T) {
	log1 := string(chaosEventLogRun(t))
	log2 := string(chaosEventLogRun(t))
	if log1 != log2 {
		t.Fatalf("same seed produced different event logs:\n%s\nvs\n%s", log1, log2)
	}
	for _, want := range []string{
		`"type":"JobStart"`, `"type":"JobEnd"`,
		`"type":"StageSubmitted"`, `"type":"StageCompleted"`, `"type":"StageResubmitted"`,
		`"type":"TaskStart"`, `"type":"TaskEnd"`,
		`"type":"BlockCached"`, `"type":"FetchFailure"`,
		`injected task crash`, `"recovery":true`,
	} {
		if !strings.Contains(log1, want) {
			t.Errorf("chaos event log is missing %s", want)
		}
	}
}

// TestEventLogRoundTrip checks the log codec: parsing a log and re-writing
// the parsed events reproduces the original bytes exactly.
func TestEventLogRoundTrip(t *testing.T) {
	raw := chaosEventLogRun(t)
	events, err := ReadEventLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event log")
	}
	var buf bytes.Buffer
	w := NewEventLogWriter(&buf)
	for _, ev := range events {
		w.OnEvent(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Error("re-serialised event log differs from the original")
	}
}

// TestEventTimestampsMonotone checks virtual timestamps: events are stamped
// on the simulated clock, jobs advance it, and a task span lies inside its
// stage.
func TestEventTimestampsMonotone(t *testing.T) {
	var events []Event
	rec := ListenerFunc(func(ev Event) { events = append(events, ev) })
	c, err := New(Config{Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge}, Seed: 3, Listeners: []Listener{rec}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := Count(Map(Parallelize(c, seq(500), 4), "id", func(x int) int { return x })); err != nil {
			t.Fatal(err)
		}
	}
	var lastJobEnd float64
	var stageStart float64
	for _, ev := range events {
		switch e := ev.(type) {
		case *JobStart:
			if e.Time < lastJobEnd {
				t.Errorf("job %d starts at %.6f, before the previous job ended at %.6f", e.Job, e.Time, lastJobEnd)
			}
		case *JobEnd:
			lastJobEnd = e.Time
		case *StageSubmitted:
			stageStart = e.Time
		case *TaskEnd:
			// Task starts and stage submits accumulate measured host time
			// along different summation orders, so a task launched exactly at
			// stage submit can land one ULP below it; tolerate that rounding,
			// not a real ordering violation.
			if e.StartSec < stageStart && stageStart-e.StartSec > 1e-12*stageStart {
				t.Errorf("task span starts at %.6f, before its stage at %.6f", e.StartSec, stageStart)
			}
			if e.Time != e.StartSec+e.DurationSec {
				t.Errorf("TaskEnd time %.6f != start %.6f + duration %.6f", e.Time, e.StartSec, e.DurationSec)
			}
		}
	}
	if c.VirtualTime() != lastJobEnd {
		t.Errorf("context clock %.6f != last JobEnd timestamp %.6f", c.VirtualTime(), lastJobEnd)
	}
}

// TestConsoleProgressListener checks both modes: full progress narrates jobs
// and stages; RecoveryOnly stays silent on a clean run.
func TestConsoleProgressListener(t *testing.T) {
	var full, quiet bytes.Buffer
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
		Seed:    9,
		Listeners: []Listener{
			&ConsoleProgressListener{W: &full},
			&ConsoleProgressListener{W: &quiet, RecoveryOnly: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := Map(Parallelize(c, seq(400), 4), "kv", func(x int) KV[int, int] { return KV[int, int]{K: x % 3, V: x} })
	if _, err := Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, 2)); err != nil {
		t.Fatal(err)
	}
	out := full.String()
	for _, want := range []string{"[job 1] collect", "stage map(shuffle 1)", "stage result", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if quiet.Len() != 0 {
		t.Errorf("RecoveryOnly listener printed on a clean run:\n%s", quiet.String())
	}
}

// TestReadEventLogNamesTheLine: every reader error names the 1-based line it
// is about, blank lines counted, and the event types this engine no longer
// emits — adaptive planning's and speculation's — are refused, not skipped.
func TestReadEventLogNamesTheLine(t *testing.T) {
	const start = `{"type":"JobStart","data":{"time":0,"job":1,"action":"count","rdd":"r"}}`
	for _, tc := range []struct{ log, want string }{
		{start + "\n" + `{"type":"AdaptivePlan","data":{"time":0.5,"job":1,"stage":1,"round":0,"rdd":"r","partitions":5,"tasks":1,"coalescedGroups":1}}` + "\n",
			`line 2: unknown event type "AdaptivePlan"`},
		{start + "\n\n" + `{"type":"SpeculativeTaskLaunched","data":{"time":0.1,"job":1,"stage":0,"round":0,"part":3,"attempt":1,"executor":2,"original":0}}`,
			`line 3: unknown event type "SpeculativeTaskLaunched"`},
		{`{"type":"TaskKilled","data":{"time":0.2,"job":1,"stage":0,"round":0,"part":3,"attempt":1,"executor":0,"reason":"speculative copy finished first"}}`,
			`line 1: unknown event type "TaskKilled"`},
		{start + "\n" + `{"type":"JobEnd","data":{"time":`, "line 2: malformed line"},
		{start + "\n" + `{"type":"JobEnd","data":{"job":"one"}}`, "line 2: decoding JobEnd event"},
	} {
		if _, err := ReadEventLog(strings.NewReader(tc.log)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadEventLog: error %v, want one containing %q", err, tc.want)
		}
	}
}
