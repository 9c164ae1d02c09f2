// The timeline drawn from an event log: its Chrome-trace shape, and the
// claim that lets the log be a run's one record — the trace drawn from the
// log read back is byte for byte the trace drawn from the events as they
// happened.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/rdd"
)

// chaosRun runs a shuffle job under task crashes, fetch failures,
// stragglers and a node loss, then a job cancelled mid-run, and returns the
// events a live listener saw together with the event log the run wrote.
func chaosRun(t *testing.T) (live []rdd.Event, log []byte) {
	t.Helper()
	var mu sync.Mutex
	var buf bytes.Buffer
	elw := rdd.NewEventLogWriter(&buf)
	c, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:    11,
		Faults: rdd.FaultProfile{
			TaskCrashProb: 0.12, FetchFailureProb: 0.1, StragglerProb: 0.05,
			NodeLoss: []rdd.NodeLoss{{Node: 2, AfterTasks: 20}},
		},
		Listeners: []rdd.Listener{elw, rdd.ListenerFunc(func(ev rdd.Event) {
			mu.Lock()
			live = append(live, ev)
			mu.Unlock()
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 5000)
	for i := range seq {
		seq[i] = i
	}
	pairs := rdd.Map(rdd.Parallelize(c, seq, 16), "key", func(x int) rdd.KV[int, int] { return rdd.KV[int, int]{K: x % 5, V: x} })
	if _, err := rdd.Collect(rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)); err != nil {
		t.Fatal(err)
	}

	// The first task cancels its own job; the scheduler stops at the next
	// task boundary.
	cancelled, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = c.Submit(rdd.Submission{Context: cancelled}, func() error {
		_, err := rdd.Count(rdd.Map(rdd.Parallelize(c, seq, 64), "cancel", func(x int) int { once.Do(cancel); return x }))
		return err
	})
	if err == nil {
		t.Fatal("the self-cancelling job succeeded")
	}
	if err := elw.Close(); err != nil {
		t.Fatal(err)
	}
	return live, buf.Bytes()
}

func readLog(t *testing.T, log []byte) []rdd.Event {
	t.Helper()
	events, err := rdd.ReadEventLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestChromeTrace renders the timeline of a chaos run's event log and
// validates its shape.
func TestChromeTrace(t *testing.T) {
	_, log := chaosRun(t)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, readLog(t, log)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var tasks, stages, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur < 0 || e.Ts < 0 {
				t.Errorf("span %q has negative ts/dur (%f, %f)", e.Name, e.Ts, e.Dur)
			}
			if e.Pid == 0 {
				stages++
			} else {
				tasks++
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if tasks == 0 || stages == 0 || instants == 0 || meta == 0 {
		t.Errorf("trace missing entries: %d task, %d stage, %d instant, %d metadata", tasks, stages, instants, meta)
	}
}

// TestLogCarriesTheTimeline: the trace drawn from the log read back equals,
// byte for byte, the trace drawn from the events a live listener saw. A
// field the trace reads that the log drops (json:"-") fails it, provided
// the run gives that field a value; the run is checked to reach every event
// kind and field the trace draws from.
func TestLogCarriesTheTimeline(t *testing.T) {
	live, log := chaosRun(t)
	seen := map[string]bool{}
	for _, ev := range live {
		switch e := ev.(type) {
		case *rdd.TaskEnd:
			seen["failed task"] = seen["failed task"] || !e.OK && e.Failure != ""
			seen["recovery task"] = seen["recovery task"] || e.Recovery
			seen["executor > 0"] = seen["executor > 0"] || e.Executor > 0
		case *rdd.StageCompleted:
			seen["stage round > 0"] = seen["stage round > 0"] || e.Round > 0
		case *rdd.StageResubmitted, *rdd.JobCancelled, *rdd.NodeLost:
			seen[ev.Name()] = true
		}
	}
	for _, kind := range []string{"failed task", "recovery task", "executor > 0", "stage round > 0", "StageResubmitted", "JobCancelled", "NodeLost"} {
		if !seen[kind] {
			t.Errorf("the chaos run has no %s: the comparison would not cover it", kind)
		}
	}

	var fromLive, fromLog bytes.Buffer
	if err := writeChromeTrace(&fromLive, live); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTrace(&fromLog, readLog(t, log)); err != nil {
		t.Fatal(err)
	}
	if a, b := fromLive.Bytes(), fromLog.Bytes(); !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		from := max(i-60, 0)
		t.Errorf("the trace drawn from the log differs from the live one at byte %d:\nlog:  …%s\nlive: …%s",
			i, b[from:min(i+60, len(b))], a[from:min(i+60, len(a))])
	}
}
