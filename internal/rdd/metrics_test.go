package rdd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
)

// TestEveryTaskMetricIsRecorded runs small jobs that reach every counting
// site of a task attempt and requires each TaskMetrics field — enumerated by
// reflection, so a field added later is covered too — to be non-zero in some
// TaskEnd. Each scenario also names the fields its own TaskEnds must record,
// "map:F" on a map stage and "result:F" on the result stage, so a counter
// counted at several sites (MaterializedBytes at every pipeline breaker,
// ShuffleBufferBytes with and without a spill) fails when any one of them is
// dropped.
func TestEveryTaskMetricIsRecorded(t *testing.T) {
	nodes := func(n, execs int) Config {
		return Config{Cluster: cluster.Config{Nodes: n, Spec: cluster.M3TwoXLarge, ExecutorsPerNode: execs}, Seed: 7}
	}
	pairs := func(c *Context) *RDD[KV[int, int]] {
		return Map(Parallelize(c, seq(2000), 4), "key", func(x int) KV[int, int] { return KV[int, int]{K: x % 10, V: x} })
	}
	add := func(a, b int) int { return a + b }
	var text strings.Builder
	for i := range 2000 {
		fmt.Fprintf(&text, "line-%06d\n", i)
	}
	scenarios := []struct {
		name string
		cfg  Config
		run  func(c *Context) error
		want []string
	}{
		{"fused chain collected", nodes(2, 0), func(c *Context) error {
			_, err := Collect(Map(Map(Parallelize(c, seq(400), 4), "inc", func(x int) int { return x + 1 }), "double", func(x int) int { return 2 * x }))
			return err
		}, []string{"ShipBytes", "FusedChain", "MaterializedBytes"}},
		{"charge", nodes(2, 0), func(c *Context) error {
			_, err := Count(MapWithSetup(Parallelize(c, seq(40), 4), "charged", func(t Task) func(int) int {
				t.Charge(1000)
				return func(x int) int { return x }
			}))
			return err
		}, []string{"Ops"}},
		// Three replicas on twelve nodes, four splits a block: delay
		// scheduling reads most splits locally and overflows some to nodes
		// without a replica.
		{"text scan", Config{Cluster: cluster.Config{Nodes: 12, Spec: cluster.M3TwoXLarge}, DFSBlockSize: 2 << 10, Seed: 3}, func(c *Context) error {
			c.FS().Write("scan.txt", []byte(text.String()))
			r, err := c.TextSplits("scan.txt", 48)
			if err != nil {
				return err
			}
			_, err = Count(r)
			return err
		}, []string{"DFSLocalBytes", "DFSRemoteBytes"}},
		// Six cached partitions over three single-executor nodes; losing one
		// executor leaves the other two holding uneven shares, so the read
		// back serves some blocks locally and sends some tasks elsewhere.
		{"cache read back", nodes(3, 1), func(c *Context) error {
			r := Parallelize(c, seq(600), 6).Cache()
			if _, err := Count(r); err != nil {
				return err
			}
			if err := c.FailExecutor(2); err != nil {
				return err
			}
			_, err := Count(r)
			return err
		}, []string{"MaterializedBytes", "CacheLocalBytes", "CacheRemoteBytes"}},
		// Storage too small for any block: MEMORY_AND_DISK demotes them all.
		{"cache demoted to disk", Config{Cluster: cluster.Config{
			Nodes: 1, Spec: cluster.NodeSpec{Name: "tiny", VCPUs: 2, MemGiB: 16},
			ExecutorsPerNode: 1, CoresPerExecutor: 2, MemPerExecutorGiB: 0.01,
		}, Seed: 7}, func(c *Context) error {
			r := Parallelize(c, seq(20000), 10).SetSizeHint(1 << 14).Persist(MemoryAndDisk)
			if _, err := Count(r); err != nil {
				return err
			}
			_, err := Count(r)
			return err
		}, []string{"CacheDiskLocalBytes"}},
		// Count, not Collect, so the result stage's MaterializedBytes is
		// the shuffle's reduce side alone.
		{"reduceByKey", nodes(4, 0), func(c *Context) error {
			_, err := Count(ReduceByKey(pairs(c), add, 3))
			return err
		}, []string{"map:ShuffleBufferBytes", "map:ExecutionPeakBytes", "map:MaterializedBytes",
			"result:ShuffleLocalBytes", "result:ShuffleRemoteBytes", "result:MaterializedBytes"}},
		{"groupByKey", nodes(4, 0), func(c *Context) error {
			_, err := Count(GroupByKey(pairs(c), 3))
			return err
		}, []string{"result:MaterializedBytes"}},
		{"join", nodes(4, 0), func(c *Context) error {
			_, err := Count(Join(pairs(c), pairs(c), 3))
			return err
		}, []string{"result:MaterializedBytes"}},
		// Every map task's buffer outgrows the capped pool and spills.
		{"capped shuffle spills", Config{Cluster: cappedCluster(), Seed: 42, Workers: 1}, func(c *Context) error {
			_, err := Count(ReduceByKey(Map(Parallelize(c, seq(40000), 4), "kv", floatKV), func(a, b float64) float64 { return a + b }, 4))
			return err
		}, []string{"map:SpilledBytes", "map:SpillCount", "map:ShuffleBufferBytes", "map:MaterializedBytes"}},
	}

	fields := reflect.VisibleFields(reflect.TypeFor[TaskMetrics]())
	recorded := map[string]bool{}
	for _, sc := range scenarios {
		var ends []*TaskEnd
		cfg := sc.cfg
		cfg.Listeners = []Listener{ListenerFunc(func(ev Event) {
			if e, ok := ev.(*TaskEnd); ok {
				ends = append(ends, e)
			}
		})}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.run(c); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		// seen["map:F"], seen["result:F"] and seen["F"]: some TaskEnd of
		// that stage kind, or of either, recorded F.
		seen := map[string]bool{}
		for _, e := range ends {
			kind := "result:"
			if e.Stage != 0 {
				kind = "map:"
			}
			m := reflect.ValueOf(e.Metrics)
			for _, f := range fields {
				if !m.FieldByIndex(f.Index).IsZero() {
					seen[f.Name], seen[kind+f.Name] = true, true
					recorded[f.Name] = true
				}
			}
		}
		for _, w := range sc.want {
			name := w[strings.Index(w, ":")+1:]
			if _, ok := reflect.TypeFor[TaskMetrics]().FieldByName(name); !ok {
				t.Fatalf("%s: %q names no TaskMetrics field", sc.name, w)
			}
			if !seen[w] {
				t.Errorf("%s: no TaskEnd recorded %s", sc.name, w)
			}
		}
	}
	for _, f := range fields {
		if !recorded[f.Name] {
			t.Errorf("TaskMetrics.%s is zero in every TaskEnd: no job reaches its counting site", f.Name)
		}
	}
}
