// The event log: a JSONL rendering of the bus, one event per line, the
// engine's analogue of Spark's spark.eventLog JSON logs. A log written under
// a fixed Config (Seed and FaultProfile included) by one submitting goroutine
// is replay-stable as written: two runs produce bit-identical files,
// timestamps and durations included, which is what the chaos replay tests
// compare. When concurrent jobs share one log the guarantee is per job and
// logical: the interleaving of lines across jobs, and under FAIR the
// timestamps slot shares stretch, follow which jobs overlapped on the host;
// each job's own event subsequence is otherwise bit-stable. cmd/sparkui
// re-reads these logs into its text Spark-UI, as the History Server replays
// Spark's.

package rdd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// eventLogLine is the envelope of one log line: the event's type name plus
// its fields.
type eventLogLine struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// marshalEvent renders one event as a single event-log line (no trailing
// newline).
func marshalEvent(ev Event) ([]byte, error) {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(eventLogLine{Type: ev.Name(), Data: data})
}

// unmarshalEvent decodes one event-log line back into its typed event.
func unmarshalEvent(line []byte) (Event, error) {
	var env eventLogLine
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("malformed line: %w", err)
	}
	factory, ok := eventFactories[env.Type]
	if !ok {
		return nil, fmt.Errorf("unknown event type %q", env.Type)
	}
	ev := factory()
	if err := json.Unmarshal(env.Data, ev); err != nil {
		return nil, fmt.Errorf("decoding %s event: %w", env.Type, err)
	}
	return ev, nil
}

// EventLogWriter is a listener that appends every bus event to w as one JSON
// line — the analogue of enabling spark.eventLog. The mutex around the JSONL
// encoder makes it safe under interleaved jobs: concurrent jobs' events
// interleave in the log line-by-line, never mid-line, and each line lands
// whole. Events carry JobID, so a multi-job log regroups per job (as
// cmd/sparkui does); within one job the event order is the bus's
// deterministic delivery order. The first write error is retained (Err) and
// suppresses further output; Close flushes buffering.
type EventLogWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewEventLogWriter wraps w in an event-log listener.
func NewEventLogWriter(w io.Writer) *EventLogWriter {
	return &EventLogWriter{w: bufio.NewWriter(w)}
}

// OnEvent implements Listener.
func (l *EventLogWriter) OnEvent(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	line, err := marshalEvent(ev)
	if err == nil {
		_, err = l.w.Write(append(line, '\n'))
	}
	if err != nil {
		l.err = err
	}
}

// Close flushes the underlying writer and returns the first error seen.
func (l *EventLogWriter) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Err returns the first write or encoding error, if any.
func (l *EventLogWriter) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ReadEventLog decodes a JSONL event log back into typed events, skipping
// blank lines. Every error names the 1-based line it is about; a type this
// build does not emit is an error, not a line to skip.
func ReadEventLog(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := unmarshalEvent(line)
		if err != nil {
			return nil, fmt.Errorf("rdd: event log line %d: %w", n, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdd: event log line %d: %w", n+1, err)
	}
	return out, nil
}
