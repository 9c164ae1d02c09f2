package rdd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sparkscore/internal/cluster"
)

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
