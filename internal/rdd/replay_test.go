// Seeded replay is a property of the seed, not of the host: every determinism
// test in this package observes its workload through workersMatrix.

package rdd

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sparkscore/internal/cluster"
	"sparkscore/internal/replaytest"
)

// workersMatrix is this package's adapter to replaytest.AcrossWorkers: every
// cell gets a fresh context built from cfg — Workers set by the matrix, an
// event-log writer attached — runs the workload on it, and is observed as the
// rendered result, the job fingerprints and the event log as written.
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
			fmt.Fprintf(&fp, "%#v\n", m)
		}
		return replaytest.Observation{Result: result, Fingerprint: fp.String(), Log: buf.String()}
	})
}

// TestSeededReplayIndependentOfWorkers is the workload no narrower test
// covers: every fault kind at once — task crashes, fetch failures, stragglers
// and a scheduled node loss — over a cached lineage that three successive
// jobs read through fresh ReduceByKey + Join shuffles, so later jobs recover
// what the node loss took from earlier ones.
func TestSeededReplayIndependentOfWorkers(t *testing.T) {
	cfg := Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:    23,
		Faults: FaultProfile{
			TaskCrashProb:    0.1,
			FetchFailureProb: 0.08,
			StragglerProb:    0.2,
			NodeLoss:         []NodeLoss{{Node: 1, AfterTasks: 9}},
		},
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
				t.Fatalf("job %d: %v", job, err)
			}
			fmt.Fprintln(&out, joined)
		}
		return out.String()
	})
	for _, want := range []string{`"type":"NodeLost"`, `"type":"FetchFailure"`, `"type":"StageResubmitted"`, `injected task crash`} {
		if !strings.Contains(obs.Log, want) {
			t.Errorf("chaos log is missing %s; the matrix is vacuous for it", want)
		}
	}
}

// TestVirtualClockIgnoresHostTime pins the clock's one input: counted work.
// Every other run of the matrix parks 20 ms of host time inside one task of a
// seeded two-stage job; every run must still report the first run's
// JobMetrics — VirtualSeconds included — and write its event log byte for
// byte, timestamps and all.
func TestVirtualClockIgnoresHostTime(t *testing.T) {
	runs := 0
	obs := workersMatrix(t, Config{Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge}, Seed: 9}, func(c *Context) string {
		park := runs%2 == 1
		runs++
		pairs := MapWithSetup(Parallelize(c, seq(400), 4), "key", func(task Task) func(int) KV[int, int] {
			if park && task.Partition == 2 {
				time.Sleep(20 * time.Millisecond)
			}
			return func(x int) KV[int, int] {
				task.Charge(1000)
				return KV[int, int]{K: x % 7, V: x}
			}
		})
		out, err := Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, 3))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out)
	})
	if !strings.Contains(obs.Log, `"ops":100000`) {
		t.Errorf("no task of the log carries its 100 elements' declared operations:\n%s", obs.Log)
	}
}

// TestChargeBuysExactlyItsSeconds runs one task with and without a declared
// charge: its DurationSec moves by the charge ÷ kernelGops and nothing else.
func TestChargeBuysExactlyItsSeconds(t *testing.T) {
	const ops = 3_500_000_000 // half a second at 7 × 10⁹ a second
	duration := func(charge int64) float64 {
		var dur float64
		c, err := New(Config{
			Cluster: cluster.Config{Nodes: 1, Spec: cluster.M3TwoXLarge},
			Listeners: []Listener{ListenerFunc(func(ev Event) {
				if e, ok := ev.(*TaskEnd); ok {
					dur = e.DurationSec
				}
			})},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Count(MapWithSetup(Parallelize(c, seq(10), 1), "work", func(task Task) func(int) int {
			task.Charge(charge)
			return func(x int) int { return x }
		}))
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	if got, want := duration(ops)-duration(0), ops/(kernelGops*1e9); math.Abs(got-want) > 1e-12 {
		t.Fatalf("charging %d operations moved the task's DurationSec by %v s, want %v", int64(ops), got, want)
	}
}
