// Lineage nodes and task contexts. A node is the untyped core of an RDD: its
// partition count, its dependencies, and a compute closure that produces a
// partition *cursor* — a boxed iter.Seq[T] that yields the partition's
// elements one at a time. Narrow chains fuse automatically: each compute
// closure wraps its parent's cursor in another lazy sequence, so a chain of
// maps and filters executes in a single pass over the data with no
// intermediate slices. Elements materialise only at pipeline breakers —
// block-manager cache puts (iterate), shuffle bucket writes, and action
// boundaries — which is exactly where Spark's own pipelined execution
// materialises.

package rdd

import (
	"fmt"
	"sync/atomic"
)

// defaultBytesPerElem is the size estimate used for cache accounting and
// shuffle cost when a node has no explicit hint.
const defaultBytesPerElem = 64

type node struct {
	id   int
	ctx  *Context
	name string

	parts int

	// narrowParent, when set, is pulled directly inside compute (pipelined).
	// Every narrow operator has exactly one.
	narrowParent *node
	// shuffleIn lists the shuffle dependencies whose outputs compute reads.
	shuffleIn []*shuffleDep

	// compute returns partition p as a boxed iter.Seq[T]. The sequence is
	// single-use per compute call: stateful operators (a MapWithSetup whose
	// setup builds per-partition state) rebuild that state inside the closure,
	// so recomputation replays identically.
	compute func(tc *taskContext, p int) any

	// count extracts the element count from a materialised partition (the
	// typed wrapper knows the slice type).
	count func(v any) int
	// materialize drains a boxed iter.Seq[T] into a boxed []T — the typed
	// half of a pipeline breaker.
	materialize func(v any) any
	// fromSlice wraps a materialised boxed []T (a cached block) back into a
	// boxed iter.Seq[T] so cached partitions feed the same cursor pipeline.
	fromSlice func(v any) any

	// fusedDepth is the length of the narrow operator chain this node
	// terminates (1 for sources and shuffle outputs, parent+1 for fused
	// narrow operators). Reported as JobMetrics.MaxFusedChain.
	fusedDepth int

	// cacheLevel: 0 = no persistence, 1 = MEMORY_ONLY, 2 = MEMORY_AND_DISK.
	cacheLevel   atomic.Int32
	bytesPerElem int64
	// sizeSlice, when set, sums per-element sizes over a materialised boxed
	// []T (SetSizeFunc) — exact accounting for variable-size elements such as
	// columnar blocks, whose partial tails a flat hint would overcharge.
	sizeSlice func(v any) int64

	// prefNodes returns the cluster nodes holding partition p's input (HDFS
	// block locations); nil for computed RDDs.
	prefNodes func(p int) []int
}

func (c *Context) newNode(name string, parts int) *node {
	if parts <= 0 {
		panic(fmt.Sprintf("rdd: node %q with %d partitions", name, parts))
	}
	return &node{
		id:           c.newNodeID(),
		ctx:          c,
		name:         name,
		parts:        parts,
		fusedDepth:   1,
		bytesPerElem: defaultBytesPerElem,
	}
}

// estBytes estimates the in-memory size of a materialised partition.
func (n *node) estBytes(v any) int64 {
	if n.sizeSlice != nil {
		return n.sizeSlice(v)
	}
	return int64(n.count(v)) * n.bytesPerElem
}

// iterate returns partition p as a boxed iter.Seq[T], serving it from the
// cache when possible and recording the block on the executing executor after
// a cache miss. This is the lineage/fault-tolerance pivot: a lost block
// simply recomputes. An uncached node passes its lazy cursor straight
// through (fusion); a cached node is a pipeline breaker — the cursor is
// drained into a slice for the block manager and the slice is re-wrapped.
func (n *node) iterate(tc *taskContext, p int) any {
	tc.m.FusedChain = max(tc.m.FusedChain, n.fusedDepth)
	level := n.cacheLevel.Load()
	if level == 0 {
		return n.compute(tc, p)
	}
	key := blockKey{rdd: n.id, part: p}
	if v, holder, onDisk, ok := n.ctx.blocks.get(key); ok {
		bytes := n.estBytes(v)
		local := n.ctx.cluster.Executor(holder).Node == tc.node()
		switch {
		case !local:
			tc.m.CacheRemoteBytes += bytes
		case onDisk:
			tc.m.CacheDiskLocalBytes += bytes
		default:
			tc.m.CacheLocalBytes += bytes
		}
		return n.fromSlice(v)
	}
	v := n.materialize(n.compute(tc, p))
	bytes := n.estBytes(v)
	tc.m.MaterializedBytes += bytes
	stored, onDisk, evicted := n.ctx.blocks.put(tc.executor, key, v, bytes, level == 2)
	for _, b := range evicted {
		tc.emit(&BlockEvicted{Job: tc.job, RDD: b.key.rdd, Part: b.key.part, Executor: b.executor, Bytes: b.bytes})
	}
	if stored {
		tc.emit(&BlockCached{Job: tc.job, RDD: n.id, Part: p, Executor: tc.executor, Bytes: bytes, OnDisk: onDisk})
	}
	return n.fromSlice(v)
}

// preferredExecutors walks the narrow lineage looking for placement hints:
// a cached block's holder first, then HDFS block locations.
func (n *node) preferredExecutors(p int) []int {
	if n.cacheLevel.Load() != 0 {
		if _, holder, _, ok := n.ctx.blocks.get(blockKey{rdd: n.id, part: p}); ok {
			return []int{holder}
		}
	}
	if n.prefNodes != nil {
		var execs []int
		for _, nd := range n.prefNodes(p) {
			execs = append(execs, n.ctx.cluster.ExecutorsOnNode(nd)...)
		}
		return execs
	}
	if n.narrowParent != nil {
		return n.narrowParent.preferredExecutors(p)
	}
	return nil
}

// shuffleDeps returns every shuffle dependency reachable from n without
// crossing another shuffle boundary — the inputs of n's stage.
func (n *node) stageShuffleDeps() []*shuffleDep {
	var out []*shuffleDep
	for m := n; m != nil; m = m.narrowParent {
		out = append(out, m.shuffleIn...)
	}
	return out
}

// taskContext is one task attempt: the executing executor, the cost drivers
// the attempt counts, and its outcome; the scheduler converts the counts to
// virtual seconds. The identity fields (job, stage, round, part, attempt)
// name the decision point for deterministic fault injection: they, not
// scheduling order, decide whether a fault fires.
type taskContext struct {
	ctx      *Context
	executor int

	job     uint64 // job sequence number within the context
	stage   uint64 // shuffle id for map stages, 0 for the result stage
	round   int    // DAG attempt (0 = first submission, +1 per resubmission)
	part    int    // partition the task computes
	attempt int    // task attempt within the stage, 1-based

	// m is the attempt's cost, counted in place at every counting site and
	// carried as it is by the attempt's TaskEnd.
	m TaskMetrics

	// execReserved is the task's outstanding execution-memory grant from the
	// memory manager, released when the attempt ends; its high-water mark is
	// m.ExecutionPeakBytes.
	execReserved int64

	// The outcome, set when the attempt ends: the host time it took (it
	// reaches TaskEnd.ComputeSec and nothing else), whether it succeeded,
	// and why not.
	computeSec float64
	ok         bool
	failure    string

	// events buffers the events this attempt produced (cache puts,
	// evictions, fetch failures). Tasks run concurrently, so publishing from
	// here would race; the scheduler flushes the buffer to the bus during
	// its deterministic accounting pass, between the attempt's TaskStart and
	// TaskEnd.
	events []Event
}

// emit buffers an event on the attempt; the scheduler publishes it later at
// a deterministic log position.
func (tc *taskContext) emit(ev Event) {
	tc.events = append(tc.events, ev)
}

// acquireExecution asks the memory manager for execution memory on the
// task's executor, publishing any evictions the acquisition caused and
// updating the task's grant accounting. A false return (acqSpill only) means
// the pool cannot cover the request.
func (tc *taskContext) acquireExecution(bytes int64, mode acqMode) bool {
	ok, evicted := tc.ctx.blocks.acquireExecution(tc.executor, bytes, mode)
	for _, b := range evicted {
		tc.emit(&BlockEvicted{Job: tc.job, RDD: b.key.rdd, Part: b.key.part, Executor: b.executor, Bytes: b.bytes})
	}
	if !ok {
		return false
	}
	tc.execReserved += bytes
	tc.m.ExecutionPeakBytes = max(tc.m.ExecutionPeakBytes, tc.execReserved)
	return true
}

// releaseExecution returns part of the task's execution grant to the pool.
func (tc *taskContext) releaseExecution(bytes int64) {
	tc.ctx.blocks.releaseExecution(tc.executor, bytes)
	tc.execReserved -= bytes
}

// releaseAllExecution returns the task's whole outstanding grant; the
// scheduler calls it when the attempt ends, success or panic alike.
func (tc *taskContext) releaseAllExecution() {
	if tc.execReserved > 0 {
		tc.ctx.blocks.releaseExecution(tc.executor, tc.execReserved)
		tc.execReserved = 0
	}
}

func (tc *taskContext) node() int {
	return tc.ctx.cluster.Executor(tc.executor).Node
}

// workBytes is the task's total data touch, the driver of the spill model.
func (m *TaskMetrics) workBytes() int64 {
	return m.DFSLocalBytes + m.DFSRemoteBytes +
		m.ShuffleLocalBytes + m.ShuffleRemoteBytes +
		m.CacheLocalBytes + m.CacheDiskLocalBytes + m.CacheRemoteBytes + m.ShipBytes
}
