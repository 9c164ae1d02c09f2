// Package replaytest holds the one determinism check every seeded-replay test
// goes through: rdd.Config.Workers is a host-parallelism cap, so what a seeded
// run computes, the recovery it performs and the events it logs must not
// depend on it. The package knows nothing about the engine (internal/rdd's own
// tests import it), only what a run must reproduce.
package replaytest

import (
	"fmt"
	"strings"
	"testing"
)

// Observation is everything a seeded run must reproduce bit for bit.
type Observation struct {
	Result      string // the workload's answer, rendered
	Fingerprint string // every job's JobMetrics, simulated seconds included
	Log         string // the event log as written
}

// AcrossWorkers runs the workload under Workers ∈ {1, 2, 8}, five repetitions
// each, fails the test unless every run reproduces the first Workers: 1 run,
// and returns that run for the caller's own assertions.
func AcrossWorkers(t testing.TB, run func(workers int) Observation) Observation {
	t.Helper()
	var ref Observation
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 5; rep++ {
			got := run(workers)
			if workers == 1 && rep == 0 {
				ref = got
				continue
			}
			for _, f := range []struct{ name, got, want string }{
				{"result", got.Result, ref.Result},
				{"fingerprint", got.Fingerprint, ref.Fingerprint},
				{"event log", got.Log, ref.Log},
			} {
				if f.got != f.want {
					t.Fatalf("workers=%d rep=%d: %s differs from the Workers: 1 run (length %d vs %d)\n%s",
						workers, rep, f.name, len(f.got), len(f.want), FirstDiff(f.got, f.want))
				}
			}
		}
	}
	return ref
}

// FirstDiff renders the first line on which got and want disagree.
func FirstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n  got:  %.400s\n  want: %.400s", i+1, gl, wl)
		}
	}
	return ""
}
