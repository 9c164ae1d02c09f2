// The typed RDD surface: sources (Parallelize, TextSplits, TextFile), narrow
// transformations (Map, FlatMap, MapWithSetup), persistence
// (Cache/Unpersist), and actions (Collect, Count). It holds the operators this repository's callers use — core, assoc, harness, server,
// cmd, examples, bench — and no others (surface_test.go fails on one that
// loses its last caller). Narrow transformations fuse into a single
// streaming pass within one task: each operator wraps its parent's partition
// cursor (iter.Seq[T]) in another lazy sequence, so no intermediate slices
// are allocated between operators. Go methods cannot introduce new type
// parameters, so transformations that change the element type are free
// functions, the conventional Go generics idiom.

package rdd

import (
	"bytes"
	"fmt"
	"iter"
)

// RDD is a resilient distributed dataset of T: an immutable, partitioned,
// lazily computed collection that can be rebuilt from its lineage.
type RDD[T any] struct {
	n *node
}

// newTypedNode builds a lineage node carrying the type-erased helpers the
// untyped engine needs: counting, draining, and re-wrapping partitions of T.
func newTypedNode[T any](c *Context, name string, parts int) *node {
	n := c.newNode(name, parts)
	n.count = func(v any) int { return len(v.([]T)) }
	n.materialize = func(v any) any { return drainSeq(seqOf[T](v)) }
	n.fromSlice = func(v any) any { return sliceSeq(v.([]T)) }
	return n
}

// seqOf unboxes a partition cursor.
func seqOf[T any](v any) iter.Seq[T] { return v.(iter.Seq[T]) }

// boxSeq boxes a partition cursor as the canonical iter.Seq[T] so seqOf's
// type assertion holds regardless of which closure produced it.
func boxSeq[T any](s iter.Seq[T]) any { return s }

// sliceSeq is a re-drainable cursor over a materialised slice.
func sliceSeq[T any](s []T) iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, v := range s {
			if !yield(v) {
				return
			}
		}
	}
}

// drainSeq materialises a cursor — a pipeline breaker.
func drainSeq[T any](s iter.Seq[T]) []T {
	var out []T
	for v := range s {
		out = append(out, v)
	}
	return out
}

// Name returns the RDD's lineage label (for metrics and debugging).
func (r *RDD[T]) Name() string { return r.n.name }

// Partitions returns the partition count.
func (r *RDD[T]) Partitions() int { return r.n.parts }

// StorageLevel selects how persisted partitions are kept, mirroring Spark's
// levels.
type StorageLevel int32

const (
	// MemoryOnly drops partitions that do not fit in executor storage; they
	// recompute from lineage on later use (Spark's default, and the paper's).
	MemoryOnly StorageLevel = 1
	// MemoryAndDisk demotes partitions that do not fit to the executor's
	// local disk: later reads pay disk bandwidth instead of recomputation.
	MemoryAndDisk StorageLevel = 2
)

// Cache marks the RDD for MEMORY_ONLY persistence: the first computation of
// each partition stores it on the computing executor and later uses read it
// back instead of recomputing the lineage. Returns r for chaining.
func (r *RDD[T]) Cache() *RDD[T] {
	return r.Persist(MemoryOnly)
}

// Persist marks the RDD for persistence at the given storage level. Returns
// r for chaining.
func (r *RDD[T]) Persist(level StorageLevel) *RDD[T] {
	if level != MemoryOnly && level != MemoryAndDisk {
		panic(fmt.Sprintf("rdd: unknown storage level %d", level))
	}
	r.n.cacheLevel.Store(int32(level))
	return r
}

// Unpersist drops any cached partitions and stops further caching.
func (r *RDD[T]) Unpersist() {
	r.n.cacheLevel.Store(0)
	r.n.ctx.blocks.dropRDD(r.n.id)
}

// SetSizeHint declares the approximate in-memory bytes per element, used for
// cache accounting and shuffle/spill cost modelling. Returns r for chaining.
func (r *RDD[T]) SetSizeHint(bytesPerElem int64) *RDD[T] {
	if bytesPerElem <= 0 {
		panic(fmt.Sprintf("rdd: size hint %d", bytesPerElem))
	}
	r.n.bytesPerElem = bytesPerElem
	return r
}

// SetSizeFunc declares a per-element size estimator, used instead of the
// flat SetSizeHint wherever a materialised partition is measured (cache
// accounting, eviction pressure). Keep a representative SetSizeHint as well:
// streaming paths that never materialise the partition still use the flat
// rate. Returns r for chaining.
func (r *RDD[T]) SetSizeFunc(f func(T) int64) *RDD[T] {
	if f == nil {
		panic("rdd: nil size func")
	}
	r.n.sizeSlice = func(v any) int64 {
		var total int64
		for _, e := range v.([]T) {
			total += f(e)
		}
		return total
	}
	return r
}

// Parallelize distributes a driver-side slice over parts partitions (
// contiguous, near-equal ranges). The data is shipped to executors with the
// tasks, which the cost model charges over the network.
func Parallelize[T any](c *Context, items []T, parts int) *RDD[T] {
	if parts <= 0 {
		panic(fmt.Sprintf("rdd: Parallelize into %d partitions", parts))
	}
	// Copy so later caller mutations cannot alter the "distributed" data.
	owned := make([]T, len(items))
	copy(owned, items)
	n := newTypedNode[T](c, fmt.Sprintf("parallelize[%d]", len(items)), parts)
	n.compute = func(tc *taskContext, p int) any {
		lo, hi := partRange(len(owned), n.parts, p)
		tc.m.ShipBytes += int64(hi-lo) * n.bytesPerElem
		return boxSeq(sliceSeq(owned[lo:hi:hi]))
	}
	return &RDD[T]{n: n}
}

// partRange splits n items into parts near-equal contiguous ranges.
func partRange(n, parts, p int) (lo, hi int) {
	lo = p * n / parts
	hi = (p + 1) * n / parts
	return lo, hi
}

// TextSplits opens a file on the simulated HDFS as an RDD with one element
// per non-empty partition: the partition's whole lines as one []byte, without
// the newline that ends the last of them — exactly the text TextFile splits
// at '\n' into that partition's lines. With minPartitions <= the block count
// there is one partition per block; a larger value sub-splits blocks into
// byte ranges, Hadoop-style — a partition owns exactly the lines that *start*
// inside its range — so map parallelism can match the cluster's core count
// rather than the block count. Task placement prefers the owning block's
// replica nodes; reads are charged at disk speed when local and network speed
// otherwise.
//
// The text is the staged block's bytes in place, with no per-task copy,
// capped at its own length: it belongs to the staged file and must not be
// modified.
func (c *Context) TextSplits(name string, minPartitions int) (*RDD[[]byte], error) {
	f, err := c.fs.Open(name)
	if err != nil {
		return nil, err
	}
	type split struct {
		block  int
		lo, hi int // raw byte range within the block
	}
	var splits []split
	target := int64(1)
	if minPartitions > 0 {
		target = f.Size / int64(minPartitions)
	}
	for b, blk := range f.Blocks {
		n := 1
		if minPartitions > len(f.Blocks) && target > 0 {
			n = int((int64(len(blk.Data)) + target - 1) / target)
			if n < 1 {
				n = 1
			}
		}
		for i := 0; i < n; i++ {
			lo, hi := partRange(len(blk.Data), n, i)
			splits = append(splits, split{block: b, lo: lo, hi: hi})
		}
	}
	// The file's text ends at its last byte that is not a newline: in block
	// lastBlock, at offset lastEnd. Blocks after it hold only the file's
	// closing newlines.
	lastBlock, lastEnd := -1, 0
	for b := len(f.Blocks) - 1; b >= 0; b-- {
		if n := len(bytes.TrimRight(f.Blocks[b].Data, "\n")); n > 0 {
			lastBlock, lastEnd = b, n
			break
		}
	}
	n := newTypedNode[[]byte](c, fmt.Sprintf("textFile(%s)", name), len(splits))
	n.prefNodes = func(p int) []int { return c.fs.BlockLocations(f, splits[p].block) }
	n.compute = func(tc *taskContext, p int) any {
		sp := splits[p]
		data := f.Blocks[sp.block].Data
		start := lineStartAtOrAfter(data, sp.lo)
		end := lineStartAtOrAfter(data, sp.hi)
		if start >= end {
			return boxSeq(sliceSeq[[]byte](nil))
		}
		local := false
		for _, nd := range tc.ctx.fs.BlockLocations(f, sp.block) {
			if nd == tc.node() {
				local = true
				break
			}
		}
		if local {
			tc.m.DFSLocalBytes += int64(end - start)
		} else {
			tc.m.DFSRemoteBytes += int64(end - start)
		}
		// The range holds whole lines. The newline that ends its last line
		// starts no line of its own, nor do the file's closing newlines.
		switch {
		case sp.block > lastBlock:
			end = start
		case sp.block == lastBlock:
			end = min(end, lastEnd)
		}
		if start >= end {
			return boxSeq(sliceSeq[[]byte](nil))
		}
		text := data[start:end]
		if text[len(text)-1] == '\n' {
			text = text[:len(text)-1]
		}
		return boxSeq(sliceSeq([][]byte{text[:len(text):len(text)]}))
	}
	return &RDD[[]byte]{n: n}, nil
}

// TextFile opens a file on the simulated HDFS as an RDD of lines: each
// TextSplits element split at every newline, so the line set is the file's
// whatever its block or split geometry — interior blank lines kept, and the
// newlines that end the file starting no line. A line is a sub-slice of the
// staged block, capped at its own length (appending to it reallocates rather
// than writing into the next line), and must not be modified. The
// partition's line set is never materialised as a slice.
func (c *Context) TextFile(name string, minPartitions int) (*RDD[[]byte], error) {
	splits, err := c.TextSplits(name, minPartitions)
	if err != nil {
		return nil, err
	}
	return FlatMap(splits, "lines", func(text []byte) iter.Seq[[]byte] {
		return func(yield func([]byte) bool) {
			for {
				i := bytes.IndexByte(text, '\n')
				if i < 0 {
					yield(text)
					return
				}
				if !yield(text[:i:i]) {
					return
				}
				text = text[i+1:]
			}
		}
	}), nil
}

// lineStartAtOrAfter returns the offset of the first line that starts at or
// after off (len(data) if none): offset 0 starts a line, and any position
// immediately after a newline starts a line.
func lineStartAtOrAfter(data []byte, off int) int {
	if off <= 0 {
		return 0
	}
	if off >= len(data) {
		return len(data)
	}
	if data[off-1] == '\n' {
		return off
	}
	i := bytes.IndexByte(data[off:], '\n')
	if i < 0 {
		return len(data)
	}
	return off + i + 1
}

// Map applies f to every element. Fused: elements stream through f without
// an intermediate slice.
func Map[T, U any](r *RDD[T], name string, f func(T) U) *RDD[U] {
	return MapWithSetup(r, name, func(Task) func(T) U { return f })
}

// Task is what MapWithSetup and FoldPartition hand the caller's
// per-partition function: the partition it is draining, and the one way a
// kernel tells the virtual clock what it did.
type Task struct {
	Partition int
	tc        *taskContext
}

// Charge adds ops counted kernel operations to the running task attempt. The
// scheduler prices them at kernelGops (DESIGN.md §5 says what one operation is
// at each call site); host time spent computing is never read, so work that
// is not charged is free on the virtual clock.
func (t Task) Charge(ops int64) {
	if ops < 0 {
		panic(fmt.Sprintf("rdd: charge of %d operations", ops))
	}
	t.tc.m.Ops += ops
}

// MapWithSetup is Map with per-partition setup: setup runs once per
// partition drain (amortising e.g. model construction) and the mapper it
// returns is applied to every element. The chain stays fused — the partition
// is never materialised.
func MapWithSetup[T, U any](r *RDD[T], name string, setup func(t Task) func(T) U) *RDD[U] {
	parent := r.n
	n := newTypedNode[U](parent.ctx, fmt.Sprintf("map:%s(%s)", name, parent.name), parent.parts)
	n.narrowParent = parent
	n.fusedDepth = parent.fusedDepth + 1
	n.compute = func(tc *taskContext, p int) any {
		in := seqOf[T](parent.iterate(tc, p))
		return boxSeq[U](func(yield func(U) bool) {
			f := setup(Task{Partition: p, tc: tc})
			for v := range in {
				if !yield(f(v)) {
					return
				}
			}
		})
	}
	return &RDD[U]{n: n}
}

// FlatMap applies f to every element and concatenates the sequences it
// returns. Fused and streamed: each of f's elements goes downstream as it is
// produced, so neither f's output for one element nor the partition-wide
// concatenation is ever materialised.
func FlatMap[T, U any](r *RDD[T], name string, f func(T) iter.Seq[U]) *RDD[U] {
	parent := r.n
	n := newTypedNode[U](parent.ctx, fmt.Sprintf("flatMap:%s(%s)", name, parent.name), parent.parts)
	n.narrowParent = parent
	n.fusedDepth = parent.fusedDepth + 1
	n.compute = func(tc *taskContext, p int) any {
		in := seqOf[T](parent.iterate(tc, p))
		return boxSeq[U](func(yield func(U) bool) {
			for v := range in {
				for u := range f(v) {
					if !yield(u) {
						return
					}
				}
			}
		})
	}
	return &RDD[U]{n: n}
}

// runSeqJob runs the action on the final node: eval consumes partition p's
// cursor inside the task (in parallel, outside the driver lock) and its
// result is handed to visit under the lock, at most once per partition.
func runSeqJob[T any](n *node, action string, eval func(tc *taskContext, s iter.Seq[T]) any, visit func(p int, v any)) error {
	return n.ctx.runJob(n, action, func(tc *taskContext, p int) any {
		return eval(tc, seqOf[T](n.iterate(tc, p)))
	}, visit)
}

// Collect materialises the whole RDD on the driver in partition order. The
// output slice is preallocated from the per-partition counts, so the only
// copies are partition results and the final assembly.
func Collect[T any](r *RDD[T]) ([]T, error) {
	n := r.n
	parts := make([][]T, n.parts)
	err := runSeqJob(n, "collect", func(tc *taskContext, s iter.Seq[T]) any {
		out := drainSeq(s)
		tc.m.MaterializedBytes += int64(len(out)) * n.bytesPerElem
		return out
	}, func(p int, v any) {
		parts[p] = v.([]T)
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]T, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

// Count returns the number of elements. Streaming: partitions are counted
// off the cursor without being materialised.
func Count[T any](r *RDD[T]) (int, error) {
	counts := make([]int, r.n.parts)
	err := runSeqJob(r.n, "count", func(_ *taskContext, s iter.Seq[T]) any {
		n := 0
		for range s {
			n++
		}
		return n
	}, func(p int, v any) {
		counts[p] = v.(int)
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}
