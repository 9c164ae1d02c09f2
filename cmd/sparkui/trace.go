// The event timeline: a Chrome trace-event JSON rendering of an event log's
// virtual-time task and stage spans (load it in chrome://tracing or
// https://ui.perfetto.dev), rebuilt from the log the way Spark's History
// Server rebuilds its event timeline from spark.eventLog.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"sparkscore/internal/rdd"
)

// traceEvent is one entry of the Chrome trace-event format: a complete span
// ("X"), an instant ("i"), or process metadata ("M"). Timestamps are
// microseconds of virtual time.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const microsecond = 1e6 // virtual seconds → trace microseconds

// writeChromeTrace renders events as one Chrome trace-event JSON object.
// Each executor is a trace process whose rows are partitions; the driver
// process (pid 0) carries stage spans and recovery instants.
func writeChromeTrace(w io.Writer, events []rdd.Event) error {
	var spans []traceEvent
	execs := map[int]bool{}
	instant := func(name string, t float64) {
		spans = append(spans, traceEvent{Name: name, Ph: "i", Ts: t * microsecond, S: "g"})
	}
	for _, ev := range events {
		switch e := ev.(type) {
		case *rdd.TaskEnd:
			status := "ok"
			if !e.OK {
				status = "failed"
			}
			execs[e.Executor] = true
			spans = append(spans, traceEvent{
				Name: fmt.Sprintf("job %d stage %d part %d attempt %d", e.Job, e.Stage, e.Part, e.Attempt),
				Ph:   "X", Ts: e.StartSec * microsecond, Dur: e.DurationSec * microsecond,
				Pid: e.Executor + 1, Tid: e.Part,
				Args: map[string]any{"status": status, "recovery": e.Recovery, "failure": e.Failure},
			})
		case *rdd.StageCompleted:
			spans = append(spans, traceEvent{
				Name: fmt.Sprintf("job %d stage %d round %d: %s", e.Job, e.Stage, e.Round, e.RDD),
				Ph:   "X", Ts: (e.Time - e.Seconds) * microsecond, Dur: e.Seconds * microsecond,
				Args: map[string]any{"tasks": e.NumTasks, "failedAttempts": e.FailedAttempts},
			})
		case *rdd.StageResubmitted:
			instant(fmt.Sprintf("resubmit shuffle %d (attempt %d)", e.Shuffle, e.Attempt), e.Time)
		case *rdd.JobCancelled:
			instant(fmt.Sprintf("job %d cancelled: %s", e.Job, e.Reason), e.Time)
		case *rdd.ExecutorExcluded:
			instant(fmt.Sprintf("executor %d excluded", e.Executor), e.Time)
		case *rdd.NodeLost:
			instant(fmt.Sprintf("node %d lost", e.Node), e.Time)
		}
	}
	out := []traceEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "driver (stages)"}}}
	for _, id := range slices.Sorted(maps.Keys(execs)) {
		out = append(out, traceEvent{Name: "process_name", Ph: "M", Pid: id + 1, Args: map[string]any{"name": fmt.Sprintf("executor %d", id)}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": append(out, spans...), "displayTimeUnit": "ms"})
}
