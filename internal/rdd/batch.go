// MapBatches: the batching narrow operator behind the columnar engine. It
// groups a streamed partition into fixed-size element batches and maps each
// batch to one output element, staying fused with the chain — the batch
// buffer is the only intermediate, it is bounded by the batch size, and it is
// reused across batches within a partition drain. FoldPartition is its
// many-to-few sibling: a streaming per-partition aggregate.

package rdd

import "fmt"

// MapBatches applies f to consecutive batches of up to size elements,
// yielding one U per batch; the final batch of a partition may be short.
// Fused: elements stream into a reused batch buffer, so f must not retain
// the slice it is handed (copy out whatever survives the call). Batches
// never span partitions, and the upstream element order is preserved within
// and across batches, so deterministic pipelines stay deterministic.
func MapBatches[T, U any](r *RDD[T], name string, size int, f func(t Task, batch []T) U) *RDD[U] {
	if size <= 0 {
		panic(fmt.Sprintf("rdd: MapBatches size %d", size))
	}
	parent := r.n
	n := newTypedNode[U](parent.ctx, fmt.Sprintf("mapBatches:%s(%s)", name, parent.name), parent.parts)
	n.narrowParent = parent
	n.fusedDepth = parent.fusedDepth + 1
	n.compute = func(tc *taskContext, p int) any {
		in := seqOf[T](parent.iterate(tc, p))
		return boxSeq[U](func(yield func(U) bool) {
			t := Task{Partition: p, tc: tc}
			batch := make([]T, 0, size)
			for v := range in {
				batch = append(batch, v)
				if len(batch) == size {
					if !yield(f(t, batch)) {
						return
					}
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				yield(f(t, batch))
			}
		})
	}
	return &RDD[U]{n: n}
}

// FoldPartition aggregates each partition as it streams: setup runs once per
// partition drain and returns add, applied to every element in upstream
// order, and finish, whose result is emitted once the partition is exhausted
// (an empty partition still calls finish). Fused like MapWithSetup — nothing
// is retained between elements, so each dies as soon as add returns — and a
// retried or recomputed partition runs setup again, so no state crosses
// attempts.
func FoldPartition[T, U any](r *RDD[T], name string, setup func(t Task) (add func(T), finish func() []U)) *RDD[U] {
	parent := r.n
	n := newTypedNode[U](parent.ctx, fmt.Sprintf("fold:%s(%s)", name, parent.name), parent.parts)
	n.narrowParent = parent
	n.fusedDepth = parent.fusedDepth + 1
	n.compute = func(tc *taskContext, p int) any {
		in := seqOf[T](parent.iterate(tc, p))
		return boxSeq[U](func(yield func(U) bool) {
			add, finish := setup(Task{Partition: p, tc: tc})
			for v := range in {
				add(v)
			}
			for _, u := range finish() {
				if !yield(u) {
					return
				}
			}
		})
	}
	return &RDD[U]{n: n}
}
