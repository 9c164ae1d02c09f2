// FoldPartition: the many-to-few narrow operator behind every pass over the
// packed genotype blocks — a streaming per-partition aggregate that stays
// fused with the chain.

package rdd

import "fmt"

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
