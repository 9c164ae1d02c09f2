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
	tc.noteFused(n.fusedDepth)
	level := n.cacheLevel.Load()
	if level == 0 {
		return n.compute(tc, p)
	}
	key := blockKey{rdd: n.id, part: p}
	if v, holder, onDisk, ok := n.ctx.blocks.get(key); ok {
		bytes := n.estBytes(v)
		local := n.ctx.cluster.Executor(holder).Node == tc.node()
		switch {
		case onDisk && local:
			tc.cacheDiskLocalBytes += bytes
		case onDisk:
			tc.cacheRemoteBytes += bytes
		case local:
			tc.cacheLocalBytes += bytes
		default:
			tc.cacheRemoteBytes += bytes
		}
		return n.fromSlice(v)
	}
	v := n.materialize(n.compute(tc, p))
	bytes := n.estBytes(v)
	tc.noteMaterialized(bytes)
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

// taskContext carries the executing executor and accumulates the cost
// drivers of one task; the scheduler converts them to virtual seconds. The
// identity fields (job, stage, round, part, attempt) name the decision point
// for deterministic fault injection: they, not scheduling order, decide
// whether a fault fires.
type taskContext struct {
	ctx      *Context
	executor int

	job     uint64 // job sequence number within the context
	stage   uint64 // shuffle id for map stages, 0 for the result stage
	round   int    // DAG attempt (0 = first submission, +1 per resubmission)
	part    int    // partition the task computes
	attempt int    // task attempt within the stage, 1-based

	dfsLocalBytes       int64
	dfsRemoteBytes      int64
	shuffleLocalBytes   int64
	shuffleRemoteBytes  int64
	cacheLocalBytes     int64
	cacheDiskLocalBytes int64 // MEMORY_AND_DISK blocks read from local disk
	cacheRemoteBytes    int64
	shipBytes           int64 // driver-to-executor payload (Parallelize)

	// ops is the kernel work the task's closures declared (Task.Charge): the
	// compute term of its simulated duration.
	ops int64

	// materializedBytes totals the bytes this task materialised at pipeline
	// breakers (cache puts, shuffle bucket writes, action boundaries). A
	// fully fused narrow chain ending in a streaming action materialises
	// nothing; the seed's slice-per-operator path materialised every
	// intermediate. The per-task maximum surfaces as
	// JobMetrics.PeakMaterializedBytes.
	materializedBytes int64
	// fusedChain is the longest fused narrow chain this task drove.
	fusedChain int

	// Execution-memory accounting. execReserved is the task's outstanding
	// grant from the memory manager, released when the attempt ends;
	// execPeak is its high-water mark. shuffleBufferPeak is the largest
	// shuffle buffer (sort) or bucket set (hash) the task held; spilledBytes
	// and spillCount record runs written under memory pressure.
	execReserved      int64
	execPeak          int64
	shuffleBufferPeak int64
	spilledBytes      int64
	spillCount        int

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

// snapshot freezes the attempt's cost counters into the TaskMetrics carried
// by its TaskEnd event.
func (tc *taskContext) snapshot() TaskMetrics {
	return TaskMetrics{
		DFSLocalBytes:       tc.dfsLocalBytes,
		DFSRemoteBytes:      tc.dfsRemoteBytes,
		ShuffleLocalBytes:   tc.shuffleLocalBytes,
		ShuffleRemoteBytes:  tc.shuffleRemoteBytes,
		CacheLocalBytes:     tc.cacheLocalBytes,
		CacheDiskLocalBytes: tc.cacheDiskLocalBytes,
		CacheRemoteBytes:    tc.cacheRemoteBytes,
		ShipBytes:           tc.shipBytes,
		Ops:                 tc.ops,
		MaterializedBytes:   tc.materializedBytes,
		FusedChain:          tc.fusedChain,
		SpilledBytes:        tc.spilledBytes,
		SpillCount:          tc.spillCount,
		ShuffleBufferBytes:  tc.shuffleBufferPeak,
		ExecutionPeakBytes:  tc.execPeak,
	}
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
	if tc.execReserved > tc.execPeak {
		tc.execPeak = tc.execReserved
	}
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

// noteShuffleBuffer records a shuffle buffer high-water mark.
func (tc *taskContext) noteShuffleBuffer(bytes int64) {
	if bytes > tc.shuffleBufferPeak {
		tc.shuffleBufferPeak = bytes
	}
}

func (tc *taskContext) node() int {
	return tc.ctx.cluster.Executor(tc.executor).Node
}

func (tc *taskContext) noteMaterialized(bytes int64) {
	tc.materializedBytes += bytes
}

func (tc *taskContext) noteFused(depth int) {
	if depth > tc.fusedChain {
		tc.fusedChain = depth
	}
}

// workBytes is the task's total data touch, the driver of the spill model.
func (tc *taskContext) workBytes() int64 {
	return tc.dfsLocalBytes + tc.dfsRemoteBytes +
		tc.shuffleLocalBytes + tc.shuffleRemoteBytes +
		tc.cacheLocalBytes + tc.cacheDiskLocalBytes + tc.cacheRemoteBytes + tc.shipBytes
}
