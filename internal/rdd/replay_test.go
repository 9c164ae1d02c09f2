// Seeded replay is a property of the seed, not of the host: every determinism
// test in this package observes its workload through workersMatrix.

package rdd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/replaytest"
)

// workersMatrix is this package's adapter to replaytest.AcrossWorkers: every
// cell gets a fresh context built from cfg — Workers set by the matrix, an
// event-log writer attached — runs the workload on it, and is observed as the
// rendered result, the job fingerprints and the stripped event log.
func workersMatrix(t *testing.T, cfg Config, work func(c *Context) string) replaytest.Observation {
	t.Helper()
	return replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		var buf bytes.Buffer
		elw := NewEventLogWriter(&buf)
		cfg := cfg
		cfg.Workers = workers
		cfg.Listeners = append(append([]Listener(nil), cfg.Listeners...), elw)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		result := work(c)
		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		var fp strings.Builder
		for _, m := range c.Jobs() {
			fmt.Fprintf(&fp, "%#v\n", m.WithoutMeasuredTime())
		}
		return replaytest.Observation{Result: result, Fingerprint: fp.String(), Log: strippedLog(t, buf.Bytes())}
	})
}

// TestSeededReplayIndependentOfWorkers is the workload no narrower test
// covers: every fault kind at once — task crashes, fetch failures, stragglers
// and a scheduled node loss — with speculation off and on, over a cached
// lineage that three successive jobs read through fresh ReduceByKey + Join
// shuffles, so later jobs recover what the node loss took from earlier ones.
func TestSeededReplayIndependentOfWorkers(t *testing.T) {
	for _, spec := range []bool{false, true} {
		cfg := Config{
			Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
			Seed:    23,
			Faults: FaultProfile{
				TaskCrashProb:    0.1,
				FetchFailureProb: 0.08,
				StragglerProb:    0.2,
				NodeLoss:         []NodeLoss{{Node: 1, AfterTasks: 9}},
			},
			Speculation: SpeculationConfig{Enabled: spec},
		}
		obs := workersMatrix(t, cfg, func(c *Context) string {
			cached := Map(Parallelize(c, seq(6000), 8), "x3", func(x int) int { return 3 * x }).Cache()
			weights := Map(Parallelize(c, seq(40), 2), "wkey", func(k int) KV[int, int] {
				return KV[int, int]{K: k, V: 10 * k}
			})
			var out strings.Builder
			for job := 0; job < 3; job++ {
				mod := 17 + 6*job
				pairs := Map(cached, fmt.Sprintf("key%d", mod), func(x int) KV[int, int] {
					return KV[int, int]{K: x % mod, V: x}
				})
				sums := ReduceByKey(pairs, func(a, b int) int { return a + b }, 6)
				joined, err := Collect(Join(sums, weights, 5))
				if err != nil {
					t.Fatalf("speculation=%v job %d: %v", spec, job, err)
				}
				fmt.Fprintln(&out, joined)
			}
			return out.String()
		})
		wants := []string{`"type":"NodeLost"`, `"type":"FetchFailure"`, `"type":"StageResubmitted"`, `injected task crash`}
		if spec {
			wants = append(wants, `"type":"SpeculativeTaskLaunched"`)
		}
		for _, want := range wants {
			if !strings.Contains(obs.Log, want) {
				t.Errorf("speculation=%v: chaos log is missing %s; the matrix is vacuous for it", spec, want)
			}
		}
	}
}
