package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestNewClusterLayout(t *testing.T) {
	c, err := New(Config{Nodes: 6, Spec: M3TwoXLarge})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfg
	if cfg.ExecutorsPerNode != 2 || cfg.CoresPerExecutor != 4 {
		t.Fatalf("default layout %dx%d, want 2x4", cfg.ExecutorsPerNode, cfg.CoresPerExecutor)
	}
	if len(c.Executors()) != 12 {
		t.Fatalf("%d executors, want 12", len(c.Executors()))
	}
	if c.TotalSlots() != 48 {
		t.Fatalf("%d slots, want 48 (6 nodes x 8 vCPU)", c.TotalSlots())
	}
	// Executors must be spread evenly over nodes.
	perNode := map[int]int{}
	for _, e := range c.Executors() {
		perNode[e.Node]++
	}
	for n := 0; n < 6; n++ {
		if perNode[n] != 2 {
			t.Fatalf("node %d has %d executors", n, perNode[n])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, Spec: M3TwoXLarge},
		{Nodes: 2, Spec: NodeSpec{VCPUs: 0, MemGiB: 8}},
		{Nodes: 2, Spec: M3TwoXLarge, ExecutorsPerNode: 4, CoresPerExecutor: 4, MemPerExecutorGiB: 2},  // 16 cores > 8
		{Nodes: 2, Spec: M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 2, MemPerExecutorGiB: 20}, // 40 GiB > 30
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Non-finite memory: NaN passes every <= and > check, so each must be
	// refused by name rather than sized into a NaN or infinite pool.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cfg   Config
		field string
	}{
		{Config{Nodes: 2, Spec: M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: nan}, "MemPerExecutorGiB"},
		{Config{Nodes: 2, Spec: M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: nan, TotalExecutors: 3}, "MemPerExecutorGiB"},
		{Config{Nodes: 2, Spec: M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: -inf}, "MemPerExecutorGiB"},
		{Config{Nodes: 2, Spec: NodeSpec{VCPUs: 8, MemGiB: nan}}, "MemGiB"},
		{Config{Nodes: 2, Spec: NodeSpec{VCPUs: 8, MemGiB: inf}, ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 10}, "MemGiB"},
	} {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: err = %v, want one naming %s", tc.cfg, err, tc.field)
		}
	}
}

func TestTableVIIIConfigsAdmitted(t *testing.T) {
	// The paper's auto-tuning containers on 36 nodes (Table VIII):
	// 42 containers x 10 GiB x 6 cores is over-subscribed per node on
	// m3.2xlarge if packed evenly (42/36 is not integral), so the experiment
	// harness models them as executors-per-node fractions rounded to the
	// nearest feasible layout; here we check the per-node layouts we map
	// them to are admissible.
	layouts := []Config{
		{Nodes: 36, Spec: M3TwoXLarge, ExecutorsPerNode: 1, CoresPerExecutor: 6, MemPerExecutorGiB: 10},
		{Nodes: 36, Spec: M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 3, MemPerExecutorGiB: 10},
		{Nodes: 36, Spec: M3TwoXLarge, ExecutorsPerNode: 3, CoresPerExecutor: 2, MemPerExecutorGiB: 8},
	}
	for i, cfg := range layouts {
		if _, err := New(cfg); err != nil {
			t.Errorf("layout %d rejected: %v", i, err)
		}
	}
}

func TestFailExecutor(t *testing.T) {
	c, err := New(Config{Nodes: 2, Spec: M3TwoXLarge})
	if err != nil {
		t.Fatal(err)
	}
	before := c.TotalSlots()
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	if c.Live(0) {
		t.Fatal("executor 0 still live after Fail")
	}
	if c.TotalSlots() != before-c.Executor(0).Cores {
		t.Fatalf("slots %d after failure, want %d", c.TotalSlots(), before-c.Executor(0).Cores)
	}
	if err := c.Fail(0); err == nil {
		t.Fatal("double failure accepted")
	}
	if err := c.Fail(99); err == nil {
		t.Fatal("unknown executor failure accepted")
	}
	live := c.LiveExecutors()
	for _, id := range live {
		if id == 0 {
			t.Fatal("failed executor listed as live")
		}
	}
}

func TestFailLastExecutorRefused(t *testing.T) {
	c, err := New(Config{Nodes: 1, Spec: M3TwoXLarge, ExecutorsPerNode: 1, CoresPerExecutor: 8, MemPerExecutorGiB: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(0); err == nil {
		t.Fatal("failing the last executor accepted")
	}
	if !c.Live(0) {
		t.Fatal("executor left dead after refused failure")
	}
}

func TestExecutorsOnNode(t *testing.T) {
	c, err := New(Config{Nodes: 3, Spec: M3TwoXLarge})
	if err != nil {
		t.Fatal(err)
	}
	ids := c.ExecutorsOnNode(1)
	if len(ids) != 2 {
		t.Fatalf("node 1 has %d executors, want 2", len(ids))
	}
	for _, id := range ids {
		if c.Executor(id).Node != 1 {
			t.Fatalf("executor %d not on node 1", id)
		}
	}
	if err := c.Fail(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := c.ExecutorsOnNode(1); len(got) != 1 {
		t.Fatalf("node 1 has %d live executors after failure, want 1", len(got))
	}
}

func TestExecutorMemory(t *testing.T) {
	c, err := New(Config{Nodes: 1, Spec: M3TwoXLarge, ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Executor(0).MemBytes; got != 10<<30 {
		t.Fatalf("executor memory %d, want %d", got, int64(10)<<30)
	}
}

func TestTotalExecutorsPlacement(t *testing.T) {
	// Figure 7's 42 containers on 36 nodes: 6 nodes carry 2, the rest 1.
	c, err := New(Config{
		Nodes: 36, Spec: M3TwoXLarge,
		TotalExecutors: 42, CoresPerExecutor: 6, MemPerExecutorGiB: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Executors()) != 42 {
		t.Fatalf("%d executors, want 42", len(c.Executors()))
	}
	if c.TotalSlots() != 42*6 {
		t.Fatalf("%d slots, want %d", c.TotalSlots(), 42*6)
	}
	perNode := map[int]int{}
	for _, e := range c.Executors() {
		perNode[e.Node]++
	}
	twos := 0
	for n := 0; n < 36; n++ {
		switch perNode[n] {
		case 1:
		case 2:
			twos++
		default:
			t.Fatalf("node %d has %d executors", n, perNode[n])
		}
	}
	if twos != 6 {
		t.Fatalf("%d nodes carry 2 executors, want 6", twos)
	}
}

func TestTotalExecutorsMemoryOnlyAdmission(t *testing.T) {
	// Memory-over node rejected even under DefaultResourceCalculator.
	_, err := New(Config{
		Nodes: 2, Spec: M3TwoXLarge,
		TotalExecutors: 4, CoresPerExecutor: 1, MemPerExecutorGiB: 20,
	})
	if err == nil {
		t.Fatal("memory-oversubscribed layout accepted")
	}
	// Core oversubscription is allowed (vcores not checked).
	if _, err := New(Config{
		Nodes: 2, Spec: M3TwoXLarge,
		TotalExecutors: 4, CoresPerExecutor: 6, MemPerExecutorGiB: 10,
	}); err != nil {
		t.Fatalf("core-oversubscribed layout rejected: %v", err)
	}
}

func TestFailNode(t *testing.T) {
	c, err := New(Config{Nodes: 3, Spec: M3TwoXLarge})
	if err != nil {
		t.Fatal(err)
	}
	perNode := len(c.ExecutorsOnNode(0))
	if perNode == 0 {
		t.Fatal("node 0 carries no executors")
	}
	ids, err := c.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != perNode {
		t.Fatalf("FailNode reported %d executors, node carried %d", len(ids), perNode)
	}
	for _, id := range ids {
		if c.Live(id) {
			t.Fatalf("executor %d still live after node loss", id)
		}
	}
	// A dead node cannot die twice.
	if _, err := c.FailNode(0); err == nil {
		t.Fatal("re-failing a dead node accepted")
	}
	if _, err := c.FailNode(99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// Killing every remaining node would leave no compute: the last one is
	// refused and stays intact.
	if _, err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(2); err == nil {
		t.Fatal("failing the last live node accepted")
	}
	if len(c.LiveExecutors()) == 0 {
		t.Fatal("refused node loss still killed executors")
	}
}
