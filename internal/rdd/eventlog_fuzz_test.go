package rdd

import (
	"bytes"
	"testing"
)

// FuzzReadEventLog feeds arbitrary bytes to the event-log reader. It must
// return events or an error and never panic, and whatever it accepts must
// reach a fixed point through the writer: rendered, read back and rendered
// again, the second and third renderings are byte-equal (the first may differ
// from the input in spacing, key order or ignored fields). The seeds under
// testdata/fuzz/FuzzReadEventLog are one line of a real chaos log per event
// type, a truncated line, and a type earlier builds wrote.
func FuzzReadEventLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, err := ReadEventLog(bytes.NewReader(raw))
		if err != nil {
			return
		}
		render := func(events []Event) []byte {
			var buf bytes.Buffer
			w := NewEventLogWriter(&buf)
			for _, ev := range events {
				w.OnEvent(ev)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("writing accepted events: %v", err)
			}
			return buf.Bytes()
		}
		reread := func(log []byte) []Event {
			events, err := ReadEventLog(bytes.NewReader(log))
			if err != nil {
				t.Fatalf("the reader refused the writer's rendering of what it accepted: %v\n%s", err, log)
			}
			return events
		}
		second := render(reread(render(events)))
		if third := render(reread(second)); !bytes.Equal(second, third) {
			t.Fatalf("renderings do not reach a fixed point:\n%s\nvs\n%s", second, third)
		}
	})
}
