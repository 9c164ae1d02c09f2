// Shuffle core: the map-output table, the pair operators, and the reduce-side
// folds. Map tasks produce one output per map partition — resident per-reduce
// buckets, or (under memory pressure, see sortshuffle.go) partition-grouped run
// files on the DFS with an in-memory index — and register it with the shuffle
// manager; reduce tasks fetch their partition from every map output and
// merge. Outputs are retained while some RDD lineage can still reach their
// shuffle dependency (as with Spark's external shuffle service on YARN, they
// survive executor failures), so a shuffle is computed at most once per
// lineage; once the last RDD that reads it is garbage, a cleanup registered
// on the dependency frees them (Spark's ContextCleaner). Resident bucket
// bytes are charged to the memory manager's shuffle-resident account; run
// files live on the producing node's disk and are lost with the node.
//
// Shuffle writes are pipeline breakers: the map side streams the fused narrow
// chain's cursor into the spillable buffer, so the map input is never
// materialised as one slice. For ReduceByKey an unspilled buffer
// is combined per key — one combining map per map task, split into buckets
// afterwards — before it is registered (Spark's map-side combine), shrinking
// shuffled bytes to one pair per (bucket, key) before the fetch.

package rdd

import (
	"fmt"
	"hash/maphash"
	"iter"
	"runtime"
	"sync"

	"sparkscore/internal/dfs"
)

// KV is a key-value pair, the element type of pair RDDs.
type KV[K comparable, V any] struct {
	K K
	V V
}

// JoinPair carries the matched values of an inner join.
type JoinPair[V, W any] struct {
	Left  V
	Right W
}

type shuffleDep struct {
	id     int
	parent *node
	parts  int
	runMap func(tc *taskContext, mapPart int)

	// done means the map stage has *successfully* completed at least once.
	// The scheduler sets it only after the stage succeeds, and clears it
	// when a fetch failure shows the outputs are gone, so a resubmitted job
	// recomputes rather than silently reading nothing.
	mu   sync.Mutex
	done bool

	// runMu serialises map-stage execution of this dependency across
	// concurrent jobs that share the lineage: the second job blocks until the
	// first finishes the stage, then observes done and skips it — computed at
	// most once, never twice racing into the shuffle manager. Jobs acquire
	// runMus strictly descendant-before-ancestor along the lineage DAG, so
	// the acquisition order is a topological partial order and cannot
	// deadlock.
	runMu sync.Mutex
}

func (sd *shuffleDep) isDone() bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.done
}

func (sd *shuffleDep) setDone(v bool) {
	sd.mu.Lock()
	sd.done = v
	sd.mu.Unlock()
}

type mapOutput struct {
	node     int // cluster node that produced (and serves) the output
	executor int // executor whose memory holds resident buckets
	buckets  []any
	bytes    []int64
	// runs is non-nil for a spilled sort-shuffle output: the buckets live in
	// indexed run files on the producing node's disk instead of memory, and
	// bytes holds encoded file bytes per reduce partition.
	runs []*shuffleRun
}

// residentBytes is how much executor memory the output occupies (zero for
// spilled outputs, whose data is on disk).
func (mo *mapOutput) residentBytes() int64 {
	if mo.runs != nil {
		return 0
	}
	var total int64
	for _, b := range mo.bytes {
		total += b
	}
	return total
}

type shuffleManager struct {
	mu sync.Mutex
	// outputs holds each shuffle's map outputs, indexed by map partition;
	// nil marks a partition not (or no longer) written.
	outputs map[int][]*mapOutput

	// mem accounts resident bucket bytes per executor; fs holds spilled run
	// files. Both are nil only in unit tests that never register outputs.
	mem *memoryManager
	fs  *dfs.FS
}

func newShuffleManager() *shuffleManager {
	return &shuffleManager{outputs: map[int][]*mapOutput{}}
}

// newShuffleDep allocates a shuffle dependency and registers its cleanup:
// once no lineage can reach the dependency, the garbage collector runs
// release on its id. The cleanup holds the id and the manager, never the
// dependency, so the registration itself keeps nothing alive. A job running
// on the lineage holds its final RDD, and with it every dependency below.
func (c *Context) newShuffleDep(parent *node, parts int) *shuffleDep {
	sd := &shuffleDep{id: c.newShuffleID(), parent: parent, parts: parts}
	runtime.AddCleanup(sd, c.shuffle.release, sd.id)
	return sd
}

// releaseLocked undoes an output's footprint: resident bytes leave the
// memory manager's shuffle account, run files leave the DFS.
func (sm *shuffleManager) releaseLocked(mo *mapOutput) {
	if mo == nil {
		return
	}
	if r := mo.residentBytes(); r > 0 && sm.mem != nil {
		sm.mem.addShuffleResident(mo.executor, -r)
	}
	if sm.fs != nil {
		for _, run := range mo.runs {
			_ = sm.fs.Delete(run.file)
		}
	}
}

// release frees every output of a shuffle no lineage can reach any more. It
// emits no event and touches nothing the scheduler, the memory arbiter or
// DFS placement reads, so when the collector gets to it cannot move a
// report, an event log or the virtual clock.
func (sm *shuffleManager) release(shuffle int) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, mo := range sm.outputs[shuffle] {
		sm.releaseLocked(mo)
	}
	delete(sm.outputs, shuffle)
}

func (sm *shuffleManager) write(shuffle, mapPart, mapParts, node, executor int, buckets []any, bytes []int64, runs []*shuffleRun) {
	mo := &mapOutput{node: node, executor: executor, buckets: buckets, bytes: bytes, runs: runs}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	outs := sm.outputs[shuffle]
	if outs == nil {
		outs = make([]*mapOutput, mapParts)
		sm.outputs[shuffle] = outs
	}
	sm.releaseLocked(outs[mapPart])
	if r := mo.residentBytes(); r > 0 && sm.mem != nil {
		sm.mem.addShuffleResident(executor, r)
	}
	outs[mapPart] = mo
}

func (sm *shuffleManager) has(shuffle, mapPart int) bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	outs := sm.outputs[shuffle]
	return outs != nil && outs[mapPart] != nil
}

// drop destroys one map output (injected shuffle-data loss).
func (sm *shuffleManager) drop(shuffle, mapPart int) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if outs := sm.outputs[shuffle]; outs != nil {
		sm.releaseLocked(outs[mapPart])
		outs[mapPart] = nil
	}
}

// dropNode destroys every map output served from the node: a machine loss
// takes its shuffle files (and external shuffle service) with it.
func (sm *shuffleManager) dropNode(node int) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, outs := range sm.outputs {
		for m, mo := range outs {
			if mo != nil && mo.node == node {
				sm.releaseLocked(mo)
				outs[m] = nil
			}
		}
	}
}

// fetch locates all map outputs of the shuffle for one reduce task, charging
// local or remote transfer of the reduce partition's bytes on the task
// context. A missing output — destroyed by a node loss or by fault
// injection — raises a fetchFailedError that the scheduler turns into a
// map-stage resubmission. (Reading a spilled output's run files happens
// lazily in readRuns, with the same failure semantics.)
func (sm *shuffleManager) fetch(tc *taskContext, shuffle, reducePart, mapParts int) []*mapOutput {
	tc.ctx.maybeInjectFetchFailure(tc, shuffle, mapParts)
	out := make([]*mapOutput, mapParts)
	sm.mu.Lock()
	copy(out, sm.outputs[shuffle])
	sm.mu.Unlock()
	for m, mo := range out {
		if mo == nil {
			tc.emit(&FetchFailure{Job: tc.job, Stage: tc.stage, Round: tc.round, Part: tc.part,
				Attempt: tc.attempt, Shuffle: shuffle, MapPart: m})
			panic(&fetchFailedError{shuffle: shuffle, mapPart: m})
		}
		if mo.node == tc.node() {
			tc.shuffleLocalBytes += mo.bytes[reducePart]
		} else {
			tc.shuffleRemoteBytes += mo.bytes[reducePart]
		}
	}
	return out
}

var hashSeed = maphash.MakeSeed()

// hashKey hashes a shuffle key. Integer and string keys are hashed natively;
// anything else falls back to its fmt representation (slow but correct;
// SparkScore itself only keys by int and string). Spilled runs are ordered by
// this hash, so partition grouping and key order agree.
func hashKey[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case int:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case string:
		return maphash.String(hashSeed, v)
	default:
		return maphash.String(hashSeed, fmt.Sprint(v))
	}
}

// hashPartition maps a key to a reduce partition.
func hashPartition[K comparable](k K, parts int) int {
	return int(hashKey(k) % uint64(parts))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// orderedMap is a map that remembers first-insertion order, so shuffle
// outputs are deterministic regardless of Go's randomised map iteration.
type orderedMap[K comparable, V any] struct {
	idx  map[K]int
	keys []K
	vals []V
}

func newOrderedMap[K comparable, V any]() *orderedMap[K, V] {
	return &orderedMap[K, V]{idx: map[K]int{}}
}

func (m *orderedMap[K, V]) get(k K) (V, bool) {
	if i, ok := m.idx[k]; ok {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

func (m *orderedMap[K, V]) set(k K, v V) {
	if i, ok := m.idx[k]; ok {
		m.vals[i] = v
		return
	}
	m.idx[k] = len(m.keys)
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
}

// combine folds v into k's value with f, in arrival order; a new key takes v
// as it is.
func (m *orderedMap[K, V]) combine(k K, v V, f func(V, V) V) {
	if i, ok := m.idx[k]; ok {
		m.vals[i] = f(m.vals[i], v)
		return
	}
	m.idx[k] = len(m.keys)
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
}

func (m *orderedMap[K, V]) pairs() []KV[K, V] {
	out := make([]KV[K, V], len(m.keys))
	for i, k := range m.keys {
		out[i] = KV[K, V]{K: k, V: m.vals[i]}
	}
	return out
}

// seq yields the pairs in insertion order without materialising them; the
// map must not be mutated afterwards, which holds for merged reduce outputs.
func (m *orderedMap[K, V]) seq() iter.Seq[KV[K, V]] {
	return func(yield func(KV[K, V]) bool) {
		for i, k := range m.keys {
			if !yield(KV[K, V]{K: k, V: m.vals[i]}) {
				return
			}
		}
	}
}

// registerBuckets registers a map task's resident buckets with the shuffle
// manager and accounts the materialisation (bucket writes are pipeline
// breakers). The bytes are already charged to the memory manager: the
// no-spill flush holds them under its granted buffer reservation.
func registerBuckets[K comparable, V any](ctx *Context, tc *taskContext, sd *shuffleDep, mapPart int, buckets [][]KV[K, V], bytesPerElem int64) {
	anyBuckets := make([]any, len(buckets))
	bytes := make([]int64, len(buckets))
	var total int64
	for i, b := range buckets {
		anyBuckets[i] = b
		bytes[i] = int64(len(b)) * bytesPerElem
		total += bytes[i]
	}
	tc.noteMaterialized(total)
	ctx.shuffle.write(sd.id, mapPart, sd.parent.parts, tc.node(), tc.executor, anyBuckets, bytes, nil)
}

// ReduceByKey merges the values of each key with combine, which must be
// associative and commutative. The map side streams the parent cursor into
// a spillable buffer and combines it per key (Spark's map-side combine), so
// each map output holds one pair per (bucket, key) — shuffled bytes scale with
// distinct keys rather than input size. parts <= 0 inherits the parent
// partition count.
func ReduceByKey[K comparable, V any](r *RDD[KV[K, V]], combine func(V, V) V, parts int) *RDD[KV[K, V]] {
	ctx := r.n.ctx
	if parts <= 0 {
		parts = r.n.parts
	}
	parent := r.n
	sd := ctx.newShuffleDep(parent, parts)
	sd.runMap = func(tc *taskContext, mapPart int) {
		runSortMap(ctx, tc, sd, mapPart, seqOf[KV[K, V]](parent.iterate(tc, mapPart)), parent.bytesPerElem, combine)
	}
	n := newTypedNode[KV[K, V]](ctx, fmt.Sprintf("reduceByKey(%s)", parent.name), parts)
	n.shuffleIn = []*shuffleDep{sd}
	n.bytesPerElem = parent.bytesPerElem
	n.compute = func(tc *taskContext, p int) any {
		merged := newOrderedMap[K, V]()
		for bucketSeq, spilled := range shuffleBucketSeqs[K, V](ctx, tc, sd, p, parent.parts) {
			if !spilled {
				// A resident bucket is already combined — its keys are
				// unique — so it folds straight into the global merge.
				for kv := range bucketSeq {
					merged.combine(kv.K, kv.V, combine)
				}
				continue
			}
			// A spilled output holds raw pairs: replay the map-side combine
			// over them, then fold the per-output results into the global
			// merge. This reproduces a resident output's two-level fold
			// tree, so float results are bitwise identical whether or not
			// the output was spilled.
			perMap := newOrderedMap[K, V]()
			for kv := range bucketSeq {
				perMap.combine(kv.K, kv.V, combine)
			}
			for i, k := range perMap.keys {
				merged.combine(k, perMap.vals[i], combine)
			}
		}
		est := int64(len(merged.keys)) * n.bytesPerElem
		tc.acquireExecution(est, acqForce)
		tc.noteMaterialized(est)
		return boxSeq(merged.seq())
	}
	return &RDD[KV[K, V]]{n: n}
}

// GroupByKey collects all values of each key into a slice, preserving the
// deterministic (map-partition, input) order.
func GroupByKey[K comparable, V any](r *RDD[KV[K, V]], parts int) *RDD[KV[K, []V]] {
	ctx := r.n.ctx
	if parts <= 0 {
		parts = r.n.parts
	}
	parent := r.n
	sd := ctx.newShuffleDep(parent, parts)
	sd.runMap = writeShuffleSide[K, V](ctx, sd, parent)
	n := newTypedNode[KV[K, []V]](ctx, fmt.Sprintf("groupByKey(%s)", parent.name), parts)
	n.shuffleIn = []*shuffleDep{sd}
	n.bytesPerElem = parent.bytesPerElem
	n.compute = func(tc *taskContext, p int) any {
		merged := newOrderedMap[K, []V]()
		elems := 0
		for bucketSeq := range shuffleBucketSeqs[K, V](ctx, tc, sd, p, parent.parts) {
			for kv := range bucketSeq {
				old, _ := merged.get(kv.K)
				merged.set(kv.K, append(old, kv.V))
				elems++
			}
		}
		est := int64(elems) * parent.bytesPerElem
		tc.acquireExecution(est, acqForce)
		tc.noteMaterialized(est)
		return boxSeq(merged.seq())
	}
	return &RDD[KV[K, []V]]{n: n}
}

// Join computes the inner join of two pair RDDs on their keys (the operation
// joining the weight RDD with the per-SNP score RDD in Algorithm 1 step 9).
// Keys appearing multiple times on a side produce the usual cross product,
// emitted lazily off the merged sides. parts <= 0 inherits the larger
// parent's partition count, as Spark's defaultPartitioner does — joining a
// small side must not collapse the big side's parallelism.
//
// Kept for one caller: bench/layers.go replays a join-and-reduce to price a
// shuffled record. core broadcasts the weights instead (PAPER.md §2), so Join
// goes when that replay does.
func Join[K comparable, V, W any](a *RDD[KV[K, V]], b *RDD[KV[K, W]], parts int) *RDD[KV[K, JoinPair[V, W]]] {
	ctx := a.n.ctx
	if b.n.ctx != ctx {
		panic("rdd: joining RDDs from different contexts")
	}
	if parts <= 0 {
		parts = max(a.n.parts, b.n.parts)
	}
	left, right := a.n, b.n
	sdL := ctx.newShuffleDep(left, parts)
	sdL.runMap = writeShuffleSide[K, V](ctx, sdL, left)
	sdR := ctx.newShuffleDep(right, parts)
	sdR.runMap = writeShuffleSide[K, W](ctx, sdR, right)

	n := newTypedNode[KV[K, JoinPair[V, W]]](ctx, fmt.Sprintf("join(%s,%s)", left.name, right.name), parts)
	n.shuffleIn = []*shuffleDep{sdL, sdR}
	n.bytesPerElem = left.bytesPerElem + right.bytesPerElem
	n.compute = func(tc *taskContext, p int) any {
		ls := newOrderedMap[K, []V]()
		lElems := 0
		for bucketSeq := range shuffleBucketSeqs[K, V](ctx, tc, sdL, p, left.parts) {
			for kv := range bucketSeq {
				old, _ := ls.get(kv.K)
				ls.set(kv.K, append(old, kv.V))
				lElems++
			}
		}
		rs := newOrderedMap[K, []W]()
		rElems := 0
		for bucketSeq := range shuffleBucketSeqs[K, W](ctx, tc, sdR, p, right.parts) {
			for kv := range bucketSeq {
				old, _ := rs.get(kv.K)
				rs.set(kv.K, append(old, kv.V))
				rElems++
			}
		}
		est := int64(lElems)*left.bytesPerElem + int64(rElems)*right.bytesPerElem
		tc.acquireExecution(est, acqForce)
		tc.noteMaterialized(est)
		return boxSeq[KV[K, JoinPair[V, W]]](func(yield func(KV[K, JoinPair[V, W]]) bool) {
			for _, k := range ls.keys {
				lvs, _ := ls.get(k)
				rvs, ok := rs.get(k)
				if !ok {
					continue
				}
				for _, lv := range lvs {
					for _, rv := range rvs {
						if !yield(KV[K, JoinPair[V, W]]{K: k, V: JoinPair[V, W]{Left: lv, Right: rv}}) {
							return
						}
					}
				}
			}
		})
	}
	return &RDD[KV[K, JoinPair[V, W]]]{n: n}
}

// writeShuffleSide builds the map-task body of a non-combining shuffle
// dependency (GroupByKey and each Join side).
func writeShuffleSide[K comparable, V any](ctx *Context, sd *shuffleDep, parent *node) func(tc *taskContext, mapPart int) {
	return func(tc *taskContext, mapPart int) {
		runSortMap(ctx, tc, sd, mapPart, seqOf[KV[K, V]](parent.iterate(tc, mapPart)), parent.bytesPerElem, nil)
	}
}

// CollectAsMap collects a pair RDD into a driver-side map. Later duplicates
// of a key overwrite earlier ones, as in Spark.
func CollectAsMap[K comparable, V any](r *RDD[KV[K, V]]) (map[K]V, error) {
	pairs, err := Collect(r)
	if err != nil {
		return nil, err
	}
	out := make(map[K]V, len(pairs))
	for _, kv := range pairs {
		out[kv.K] = kv.V
	}
	return out, nil
}
