package rdd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkscore/internal/cluster"
)

// TestSpeculationEventLogDeterminism replays a shuffle workload under
// stragglers + task crashes with speculation on across the Workers matrix:
// the event logs must be byte-identical, and speculation must
// actually have fired — copies launched, originals killed, wins counted.
func TestSpeculationEventLogDeterminism(t *testing.T) {
	var stats RecoveryStats
	obs := workersMatrix(t, Config{
		Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:    11,
		Faults: FaultProfile{
			TaskCrashProb: 0.1,
			StragglerProb: 0.4,
		},
		Speculation: SpeculationConfig{Enabled: true},
	}, func(c *Context) string {
		cached := Map(Parallelize(c, seq(3000), 8), "x3", func(x int) int { return 3 * x }).Cache()
		if _, err := Count(cached); err != nil {
			t.Fatal(err)
		}
		pairs := Map(cached, "key", func(x int) KV[int, int] { return KV[int, int]{K: x % 17, V: x} })
		sums, err := Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, 6))
		if err != nil {
			t.Fatal(err)
		}
		stats = SummarizeRecovery(c.Jobs())
		return fmt.Sprint(sums)
	})
	for _, want := range []string{
		`"type":"SpeculativeTaskLaunched"`, `"type":"TaskKilled"`,
		`"speculative":true`, `"killed":true`, `speculative copy finished first`,
	} {
		if !strings.Contains(obs.Log, want) {
			t.Errorf("speculation event log is missing %s", want)
		}
	}
	if stats.SpeculatedTasks == 0 || stats.KilledTasks == 0 {
		t.Errorf("speculation did not fire: %d copies, %d killed", stats.SpeculatedTasks, stats.KilledTasks)
	}
	if stats.SpeculationWonTasks == 0 {
		t.Error("no speculative copy won despite killed originals")
	}
}

// TestSpeculationOffByteIdentical pins the refactor's no-op guarantee: with
// speculation disabled, the scheduler's three-phase accounting must produce
// exactly the event log the pre-speculation engine did — which the
// speculation-off chaos goldens of TestEventLogDeterminism already encode, so
// here it is enough that enabling and disabling the knob around an identical
// run changes the log only by speculation events.
func TestSpeculationOffByteIdentical(t *testing.T) {
	run := func(spec bool) string {
		var buf bytes.Buffer
		elw := NewEventLogWriter(&buf)
		c, err := New(Config{
			Cluster:     cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge},
			Seed:        5,
			Speculation: SpeculationConfig{Enabled: spec},
			Listeners:   []Listener{elw},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Count(Map(Parallelize(c, seq(2000), 8), "id", func(x int) int { return x })); err != nil {
			t.Fatal(err)
		}
		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// No stragglers → no task exceeds multiplier x median → the two logs must
	// be byte-identical even with the knob on.
	if on, off := run(true), run(false); on != off {
		t.Fatalf("speculation knob changed a run with no stragglers:\n%s\nvs\n%s", on, off)
	}
}

// TestSpeculativeCrashDoesNotCountTowardMaxFailures checks the retry
// interplay: a crashing speculative copy must neither fail the job nor add to
// the original task's task.maxFailures budget. Comparing the same seeded
// chaos run with speculation off and on, TaskRetries must not change, while
// at least one copy must actually have crashed.
func TestSpeculativeCrashDoesNotCountTowardMaxFailures(t *testing.T) {
	run := func(spec bool) ([]int, RecoveryStats, string) {
		var buf bytes.Buffer
		elw := NewEventLogWriter(&buf)
		c, err := New(Config{
			Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
			Seed:    23,
			Faults: FaultProfile{
				TaskCrashProb: 0.3,
				StragglerProb: 1,
			},
			Speculation: SpeculationConfig{Enabled: spec},
			Listeners:   []Listener{elw},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(Map(Parallelize(c, seq(4000), 12), "x2", func(x int) int { return 2 * x }))
		if err != nil {
			t.Fatalf("speculation=%v: %v", spec, err)
		}
		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		return got, SummarizeRecovery(c.Jobs()), buf.String()
	}
	resOff, statsOff, _ := run(false)
	resOn, statsOn, log := run(true)
	if len(resOff) != len(resOn) {
		t.Fatalf("speculation changed the result size: %d vs %d", len(resOff), len(resOn))
	}
	for i := range resOff {
		if resOff[i] != resOn[i] {
			t.Fatalf("speculation changed result[%d]: %d vs %d", i, resOff[i], resOn[i])
		}
	}
	if !strings.Contains(log, "injected task crash (speculative copy") {
		t.Fatal("no speculative copy crashed under TaskCrashProb 0.3; the interplay is untested")
	}
	if statsOn.TaskRetries != statsOff.TaskRetries {
		t.Errorf("speculative copy crashes leaked into task retries: %d with speculation, %d without",
			statsOn.TaskRetries, statsOff.TaskRetries)
	}
	if statsOn.SpeculatedTasks == 0 {
		t.Error("no copies launched despite every task being an 8x straggler")
	}
	// Crashed copies must not be counted as wins, and a crashed copy's
	// original survives (not killed).
	if statsOn.SpeculationWonTasks+statsOn.KilledTasks > 2*statsOn.SpeculatedTasks {
		t.Errorf("inconsistent accounting: %d copies, %d wins, %d kills",
			statsOn.SpeculatedTasks, statsOn.SpeculationWonTasks, statsOn.KilledTasks)
	}
	if statsOn.SpeculationWonTasks != statsOn.KilledTasks {
		t.Errorf("wins (%d) != killed originals (%d): first-result-wins must kill exactly the losers",
			statsOn.SpeculationWonTasks, statsOn.KilledTasks)
	}
}

// TestRunJobWithDeadline checks deadline cancellation end to end inside the
// engine, wired the way the server wires it (Submit under a
// context.WithTimeout): a job whose tasks outlast the deadline is cancelled at
// a task boundary with a JobCancelledError, terminal cancelled events are
// emitted, and the same context then runs a subsequent job to a correct
// result.
func TestRunJobWithDeadline(t *testing.T) {
	var events []Event
	var mu sync.Mutex
	rec := ListenerFunc(func(ev Event) { mu.Lock(); events = append(events, ev); mu.Unlock() })
	c, err := New(Config{
		Cluster:   cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge},
		Seed:      3,
		Listeners: []Listener{rec},
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.Submit(Submission{Context: deadline}, func() error {
		_, cerr := Count(Map(Parallelize(c, seq(64), 64), "slow", func(x int) int {
			time.Sleep(5 * time.Millisecond)
			return x
		}))
		return cerr
	})
	var jc *JobCancelledError
	if !errors.As(err, &jc) {
		t.Fatalf("deadline run returned %v, want JobCancelledError", err)
	}
	if jc.Job == 0 {
		t.Error("cancelled mid-run but error reports job 0 (cancelled-while-queued)")
	}

	mu.Lock()
	var sawCancelled, sawEndCancelled bool
	for _, ev := range events {
		switch e := ev.(type) {
		case *JobCancelled:
			sawCancelled = true
		case *JobEnd:
			if e.Cancelled {
				sawEndCancelled = true
				if e.Failed {
					t.Error("cancelled JobEnd also marked Failed; cancellation is not a failure")
				}
			}
		}
	}
	mu.Unlock()
	if !sawCancelled || !sawEndCancelled {
		t.Fatalf("terminal cancellation events missing: JobCancelled=%v, JobEnd{Cancelled}=%v",
			sawCancelled, sawEndCancelled)
	}

	jobs := c.Jobs()
	if len(jobs) == 0 || !jobs[len(jobs)-1].Cancelled {
		t.Fatal("cancelled job missing from metrics or not marked Cancelled")
	}
	if stats := SummarizeRecovery(jobs); stats.CancelledJobs != 1 {
		t.Errorf("SummarizeRecovery counted %d cancelled jobs, want 1", stats.CancelledJobs)
	}

	// The context must remain fully reusable: block manager, shuffle state,
	// and clock all consistent for a subsequent correct job.
	got, err := Count(Map(Parallelize(c, seq(500), 4), "id", func(x int) int { return x }))
	if err != nil {
		t.Fatalf("job after cancellation failed: %v", err)
	}
	if got != 500 {
		t.Fatalf("job after cancellation returned %d, want 500", got)
	}
}

// TestCancelWhileQueuedFIFO checks the arbiter interplay: a job cancelled
// while waiting in the FIFO queue never starts — no job id, no events — and
// the queue keeps serving later jobs (the abandoned ticket is skipped).
func TestCancelWhileQueuedFIFO(t *testing.T) {
	var events []Event
	var mu sync.Mutex
	rec := ListenerFunc(func(ev Event) { mu.Lock(); events = append(events, ev); mu.Unlock() })
	c, err := New(Config{
		Cluster:   cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge},
		Seed:      1,
		Scheduler: SchedulerConfig{Mode: SchedFIFO},
		Listeners: []Listener{rec},
	})
	if err != nil {
		t.Fatal(err)
	}

	slowStarted := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		close(slowStarted)
		_, serr := Count(Map(Parallelize(c, seq(16), 16), "slow", func(x int) int {
			time.Sleep(20 * time.Millisecond)
			return x
		}))
		slowDone <- serr
	}()
	<-slowStarted
	time.Sleep(30 * time.Millisecond) // let the slow job take the FIFO head

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, qerr := c.Submit(Submission{Context: ctx}, func() error {
			_, qerr := Count(Parallelize(c, seq(10), 2))
			return qerr
		})
		queuedErr <- qerr
	}()
	time.Sleep(30 * time.Millisecond) // let it enqueue behind the slow job
	cancel()

	err = <-queuedErr
	var jc *JobCancelledError
	if !errors.As(err, &jc) {
		t.Fatalf("queued job returned %v, want JobCancelledError", err)
	}
	if jc.Job != 0 {
		t.Errorf("cancelled-while-queued job reported id %d, want 0 (never started)", jc.Job)
	}
	if serr := <-slowDone; serr != nil {
		t.Fatalf("slow job failed: %v", serr)
	}

	// The abandoned ticket must not wedge the queue.
	if _, err := Count(Parallelize(c, seq(100), 2)); err != nil {
		t.Fatalf("job after an abandoned FIFO ticket failed: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	starts := 0
	for _, ev := range events {
		if _, ok := ev.(*JobStart); ok {
			starts++
		}
	}
	if starts != 2 {
		t.Errorf("%d JobStart events, want 2: a cancelled-while-queued job must emit none", starts)
	}
}

// TestConfigValidation checks that nonsense knobs — fault probabilities, a
// negative worker count, overheads that would run the clock backwards — are
// rejected at Context construction with errors naming the field.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"crash prob > 1", Config{Faults: FaultProfile{TaskCrashProb: 1.5}}, "TaskCrashProb"},
		{"negative fetch prob", Config{Faults: FaultProfile{FetchFailureProb: -0.1}}, "FetchFailureProb"},
		{"straggler prob > 1", Config{Faults: FaultProfile{StragglerProb: 7}}, "StragglerProb"},
		{"negative node", Config{Faults: FaultProfile{NodeLoss: []NodeLoss{{Node: -1}}}}, "NodeLoss[0].Node"},
		{"negative after-tasks", Config{Faults: FaultProfile{NodeLoss: []NodeLoss{{Node: 0, AfterTasks: -5}}}}, "NodeLoss[0].AfterTasks"},
		{"negative coalescing target", Config{Adaptive: AdaptiveConfig{TargetPartitionBytes: -1}}, "TargetPartitionBytes"},
		{"negative workers", Config{Workers: -2}, "Workers"},
		{"negative task overhead", Config{SchedOverheadSec: -0.004}, "SchedOverheadSec"},
		{"NaN task overhead", Config{SchedOverheadSec: math.NaN()}, "SchedOverheadSec"},
		{"negative stage overhead", Config{StageOverheadSec: -1}, "StageOverheadSec"},
		{"infinite stage overhead", Config{StageOverheadSec: math.Inf(1)}, "StageOverheadSec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Cluster = cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge}
			_, err := New(tc.cfg)
			if err == nil {
				t.Fatal("New accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// And the happy path: valid knobs pass.
	if _, err := New(Config{
		Cluster:     cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge},
		Faults:      FaultProfile{TaskCrashProb: 0.1, StragglerProb: 0.2},
		Speculation: SpeculationConfig{Enabled: true},
	}); err != nil {
		t.Fatalf("New rejected a valid config: %v", err)
	}
}
