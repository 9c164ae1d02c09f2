// Secondary RDD operators: the rest of the everyday Spark surface built on
// the same primitives (fused narrow nodes and the shuffle).

package rdd

import (
	"fmt"
	"iter"

	"sparkscore/internal/rng"
)

// Distinct returns the unique elements of r via a shuffle (one reduce task
// per partition unless parts overrides it).
func Distinct[T comparable](r *RDD[T], parts int) *RDD[T] {
	pairs := Map(r, "asKey", func(v T) KV[T, struct{}] { return KV[T, struct{}]{K: v} })
	pairs.n.bytesPerElem = r.n.bytesPerElem
	reduced := ReduceByKey(pairs, func(a, _ struct{}) struct{} { return a }, parts)
	out := Map(reduced, "dropValue", func(kv KV[T, struct{}]) T { return kv.K })
	out.n.bytesPerElem = r.n.bytesPerElem
	return out
}

// Keys projects the keys of a pair RDD. Fused (a Map under the hood); the
// parent's size hint carries over as an upper bound, since a key is no
// larger than its pair.
func Keys[K comparable, V any](r *RDD[KV[K, V]]) *RDD[K] {
	out := Map(r, "keys", func(kv KV[K, V]) K { return kv.K })
	out.n.bytesPerElem = r.n.bytesPerElem
	return out
}

// Values projects the values of a pair RDD. Fused; the parent's size hint
// carries over as an upper bound.
func Values[K comparable, V any](r *RDD[KV[K, V]]) *RDD[V] {
	out := Map(r, "values", func(kv KV[K, V]) V { return kv.V })
	out.n.bytesPerElem = r.n.bytesPerElem
	return out
}

// MapValues transforms the values of a pair RDD, keeping keys (and therefore
// any co-partitioning) intact. Fused.
func MapValues[K comparable, V, W any](r *RDD[KV[K, V]], name string, f func(V) W) *RDD[KV[K, W]] {
	return Map(r, "mapValues:"+name, func(kv KV[K, V]) KV[K, W] {
		return KV[K, W]{K: kv.K, V: f(kv.V)}
	})
}

// Sample returns an independent Bernoulli(fraction) sample of r. Each
// partition derives its own deterministic stream from seed, so the sample is
// reproducible and independent of scheduling. Fused: the RNG is re-seeded
// inside the cursor, so every drain — including recomputation after a
// failure — replays the identical coin flips.
func Sample[T any](r *RDD[T], fraction float64, seed uint64) *RDD[T] {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("rdd: sample fraction %v outside [0,1]", fraction))
	}
	parent := r.n
	n := newTypedNode[T](parent.ctx, fmt.Sprintf("sample[%g](%s)", fraction, parent.name), parent.parts)
	n.narrowParents = []*node{parent}
	n.bytesPerElem = parent.bytesPerElem
	n.fusedDepth = parent.fusedDepth + 1
	n.compute = func(tc *taskContext, p int) any {
		in := seqOf[T](parent.iterate(tc, p))
		return boxSeq[T](func(yield func(T) bool) {
			rr := rng.New(seed).Split(uint64(p))
			for v := range in {
				if rr.Bernoulli(fraction) && !yield(v) {
					return
				}
			}
		})
	}
	return &RDD[T]{n: n}
}

// Coalesce reduces the partition count without a shuffle: each output
// partition concatenates a contiguous range of parent partitions. parts
// larger than the current count is clamped (coalesce never increases
// parallelism; repartitioning up requires a shuffle). Fused: parent cursors
// are chained, not copied.
func Coalesce[T any](r *RDD[T], parts int) *RDD[T] {
	if parts <= 0 {
		panic(fmt.Sprintf("rdd: Coalesce to %d partitions", parts))
	}
	parent := r.n
	if parts >= parent.parts {
		return r
	}
	n := newTypedNode[T](parent.ctx, fmt.Sprintf("coalesce[%d](%s)", parts, parent.name), parts)
	n.narrowParents = []*node{parent}
	n.bytesPerElem = parent.bytesPerElem
	n.fusedDepth = parent.fusedDepth + 1
	n.compute = func(tc *taskContext, p int) any {
		lo, hi := partRange(parent.parts, parts, p)
		ins := make([]iter.Seq[T], 0, hi-lo)
		for q := lo; q < hi; q++ {
			ins = append(ins, seqOf[T](parent.iterate(tc, q)))
		}
		return boxSeq[T](func(yield func(T) bool) {
			for _, in := range ins {
				for v := range in {
					if !yield(v) {
						return
					}
				}
			}
		})
	}
	return &RDD[T]{n: n}
}

// CountByKey returns the number of elements per key as a driver-side map.
// The count pairs stream through map-side combine, so shuffled bytes scale
// with distinct keys, not elements.
func CountByKey[K comparable, V any](r *RDD[KV[K, V]]) (map[K]int, error) {
	ones := MapValues(r, "one", func(V) int { return 1 })
	return CollectAsMap(ReduceByKey(ones, func(a, b int) int { return a + b }, 0))
}

// Lookup returns all values of the given key (a full scan, as in Spark
// without a known partitioner).
func Lookup[K comparable, V any](r *RDD[KV[K, V]], key K) ([]V, error) {
	matching := Filter(r, "lookup", func(kv KV[K, V]) bool { return kv.K == key })
	pairs, err := Collect(matching)
	if err != nil {
		return nil, err
	}
	out := make([]V, len(pairs))
	for i, kv := range pairs {
		out[i] = kv.V
	}
	return out, nil
}
