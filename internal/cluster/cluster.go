// Package cluster models the compute resources the paper ran on: a cluster
// of Amazon EC2 instances managed by YARN, carved into executor containers
// with a fixed number of cores and amount of memory each. It is the resource
// side of the simulation; the engine asks it for executors, core slots, and
// memory budgets, and injects failures through it.
package cluster

import (
	"fmt"
	"math"
	"sync"
)

// NodeSpec describes one machine type.
type NodeSpec struct {
	Name      string
	VCPUs     int
	MemGiB    float64
	StorageGB float64
}

// M3TwoXLarge is the instance type of every experiment in the paper
// (Table I: Intel Xeon E5-2670 v2, 8 vCPU, 30 GiB, 2×80 GB).
var M3TwoXLarge = NodeSpec{Name: "m3.2xlarge", VCPUs: 8, MemGiB: 30, StorageGB: 160}

// Config describes a cluster the way the paper's experiments do: a node
// count, an instance type, and a YARN container layout.
type Config struct {
	Nodes int
	Spec  NodeSpec

	// ExecutorsPerNode is the number of YARN containers started on each
	// node; CoresPerExecutor and MemPerExecutorGiB size each container
	// (the three Spark run-time flags of the auto-tuning experiment).
	ExecutorsPerNode  int
	CoresPerExecutor  int
	MemPerExecutorGiB float64

	// TotalExecutors, when positive, requests an exact cluster-wide container
	// count instead of a per-node one (the paper's Figure 7 runs 42, 84, and
	// 126 containers on 36 nodes). Containers are packed round-robin, and —
	// matching YARN's DefaultResourceCalculator, which EMR used at the time —
	// admission checks memory only, so vcores may be oversubscribed on nodes
	// holding an extra container.
	TotalExecutors int
}

// DefaultContainers fills in a conventional container layout for the spec if
// the container fields are zero: 2 executors per node, each with half the
// vCPUs and slightly less than half the memory (leaving room for the OS and
// the YARN node manager).
func (c Config) DefaultContainers() Config {
	if c.ExecutorsPerNode == 0 {
		c.ExecutorsPerNode = 2
	}
	if c.CoresPerExecutor == 0 {
		c.CoresPerExecutor = c.Spec.VCPUs / c.ExecutorsPerNode
		if c.CoresPerExecutor < 1 {
			c.CoresPerExecutor = 1
		}
	}
	if c.MemPerExecutorGiB == 0 {
		c.MemPerExecutorGiB = (c.Spec.MemGiB - 4) / float64(c.ExecutorsPerNode)
	}
	return c
}

// Validate applies the YARN-style admission checks: containers must fit on
// the node in both cores and memory. Memory sizes must be finite: every
// comparison with a NaN is false, so a NaN would pass each check below.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: %d nodes", c.Nodes)
	case math.IsNaN(c.Spec.MemGiB) || math.IsInf(c.Spec.MemGiB, 0):
		return fmt.Errorf("cluster: node spec MemGiB %g is not finite", c.Spec.MemGiB)
	case math.IsNaN(c.MemPerExecutorGiB) || math.IsInf(c.MemPerExecutorGiB, 0):
		return fmt.Errorf("cluster: MemPerExecutorGiB %g is not finite", c.MemPerExecutorGiB)
	case c.Spec.VCPUs <= 0 || c.Spec.MemGiB <= 0:
		return fmt.Errorf("cluster: invalid node spec %+v", c.Spec)
	case c.ExecutorsPerNode <= 0 || c.CoresPerExecutor <= 0 || c.MemPerExecutorGiB <= 0:
		return fmt.Errorf("cluster: invalid container layout %dx%d cores, %g GiB",
			c.ExecutorsPerNode, c.CoresPerExecutor, c.MemPerExecutorGiB)
	}
	if c.TotalExecutors > 0 {
		// DefaultResourceCalculator: memory-only admission on the fullest node.
		maxPerNode := (c.TotalExecutors + c.Nodes - 1) / c.Nodes
		if float64(maxPerNode)*c.MemPerExecutorGiB > c.Spec.MemGiB {
			return fmt.Errorf("cluster: %d containers x %g GiB exceed %g GiB on the fullest node",
				maxPerNode, c.MemPerExecutorGiB, c.Spec.MemGiB)
		}
		return nil
	}
	switch {
	case c.ExecutorsPerNode*c.CoresPerExecutor > c.Spec.VCPUs:
		return fmt.Errorf("cluster: %d containers x %d cores exceed %d vCPUs",
			c.ExecutorsPerNode, c.CoresPerExecutor, c.Spec.VCPUs)
	case float64(c.ExecutorsPerNode)*c.MemPerExecutorGiB > c.Spec.MemGiB:
		return fmt.Errorf("cluster: %d containers x %g GiB exceed %g GiB node memory",
			c.ExecutorsPerNode, c.MemPerExecutorGiB, c.Spec.MemGiB)
	}
	return nil
}

// Executor is one container: a slice of a node's cores and memory.
type Executor struct {
	ID       int
	Node     int
	Cores    int
	MemBytes int64
}

// Cluster is an instantiated set of executors.
type Cluster struct {
	cfg       Config
	executors []*Executor

	mu     sync.RWMutex
	failed []bool
}

// New builds the cluster, placing ExecutorsPerNode containers on each node.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.DefaultContainers()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	add := func(node int) {
		c.executors = append(c.executors, &Executor{
			ID:       len(c.executors),
			Node:     node,
			Cores:    cfg.CoresPerExecutor,
			MemBytes: int64(cfg.MemPerExecutorGiB * (1 << 30)),
		})
	}
	if cfg.TotalExecutors > 0 {
		for i := 0; i < cfg.TotalExecutors; i++ {
			add(i % cfg.Nodes)
		}
	} else {
		for n := 0; n < cfg.Nodes; n++ {
			for e := 0; e < cfg.ExecutorsPerNode; e++ {
				add(n)
			}
		}
	}
	c.failed = make([]bool, len(c.executors))
	return c, nil
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Executors returns all executors, including failed ones.
func (c *Cluster) Executors() []*Executor { return c.executors }

// Executor returns the executor with the given id.
func (c *Cluster) Executor(id int) *Executor { return c.executors[id] }

// TotalSlots returns the number of live core slots in the cluster.
func (c *Cluster) TotalSlots() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.totalSlotsLocked()
}

func (c *Cluster) totalSlotsLocked() int {
	s := 0
	for _, e := range c.executors {
		if !c.failed[e.ID] {
			s += e.Cores
		}
	}
	return s
}

// Live reports whether the executor is up.
func (c *Cluster) Live(id int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return !c.failed[id]
}

// LiveExecutors returns the ids of all live executors.
func (c *Cluster) LiveExecutors() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for _, e := range c.executors {
		if !c.failed[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}

// Fail marks an executor dead. The engine reacts by dropping its cached
// blocks and shuffle outputs and re-placing its tasks — the fault-tolerance
// path the paper credits to Spark's RDD lineage.
func (c *Cluster) Fail(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.executors) {
		return fmt.Errorf("cluster: no executor %d", id)
	}
	if c.failed[id] {
		return fmt.Errorf("cluster: executor %d already failed", id)
	}
	c.failed[id] = true
	if c.totalSlotsLocked() == 0 {
		c.failed[id] = false
		return fmt.Errorf("cluster: refusing to fail the last live executor")
	}
	return nil
}

// FailNode fails every live executor on the node at once (a machine loss
// rather than a container loss), returning the ids that died. It refuses —
// restoring nothing — if the node does not exist, has no live executors, or
// failing it would leave the cluster without a live executor.
func (c *Cluster) FailNode(node int) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= c.cfg.Nodes {
		return nil, fmt.Errorf("cluster: no node %d", node)
	}
	var ids []int
	for _, e := range c.executors {
		if e.Node == node && !c.failed[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: node %d has no live executors", node)
	}
	for _, id := range ids {
		c.failed[id] = true
	}
	if c.totalSlotsLocked() == 0 {
		for _, id := range ids {
			c.failed[id] = false
		}
		return nil, fmt.Errorf("cluster: refusing to fail the last live node")
	}
	return ids, nil
}

// ExecutorsOnNode returns the ids of live executors running on the node.
func (c *Cluster) ExecutorsOnNode(node int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for _, e := range c.executors {
		if e.Node == node && !c.failed[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}
