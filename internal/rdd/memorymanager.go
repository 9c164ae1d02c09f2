// The memory manager arbitrates each executor's (simulated) memory between
// two consumers, as Spark's UnifiedMemoryManager does between its storage and
// execution regions:
//
//   - Storage memory holds cached RDD partitions with MEMORY_ONLY semantics:
//     least-recently-used blocks are evicted when the storage region fills,
//     and a block larger than the region is not stored at all. Evicted or
//     failed-away blocks are recomputed from lineage on next access — the
//     mechanism behind both the caching experiment (Figures 4 and 5) and the
//     fault-tolerance story.
//   - Execution memory holds shuffle state: the sort shuffle's spillable map
//     buffers and the reduce side's merge tables. Acquisitions are granted
//     from whatever the unified pool has left after storage and earlier
//     grants.
//
// The pool is memoryFraction of executor memory; the storage region is
// storageFraction of the pool. Two deliberate divergences from Spark's exact
// borrow rules, both documented in DESIGN.md §9.4:
//
//   - Storage never borrows idle execution memory: the storage region is a
//     hard cap, not a floor. The paper's cache-capacity experiments
//     (Figures 4–6) calibrate working set against a fixed storage capacity of
//     storageFraction × memory; borrowing would dissolve the capacity cliff
//     they measure.
//   - Execution under pressure may evict cached blocks below the storage
//     region (Spark only reclaims storage's borrowed excess). Cached blocks
//     are recomputable from lineage; reduce-side merge state is not (spilling
//     partial float aggregates would break the engine's bitwise
//     reproducibility contract), so unspillable acquisitions shed storage
//     rather than fail. Spillable acquisitions (sort-shuffle buffers) are
//     simply denied — spilling a buffer is cheaper than thrashing the cache.

package rdd

import (
	"container/list"
	"sync"

	"sparkscore/internal/cluster"
)

type blockKey struct {
	rdd  int
	part int
}

type block struct {
	key      blockKey
	executor int
	value    any
	bytes    int64
	onDisk   bool
	lruElem  *list.Element // nil while on disk
}

// acqMode selects what an execution-memory acquisition does when the pool
// cannot cover it.
type acqMode int

const (
	// acqSpill denies the request without touching storage: the caller can
	// spill (sort-shuffle map buffers).
	acqSpill acqMode = iota
	// acqForce evicts cached blocks and then grants unconditionally, letting
	// execution overshoot the pool (reduce-side merges, which must not spill:
	// partial float aggregates are not bitwise-reassociable).
	acqForce
)

type executorStore struct {
	pool       int64      // unified memory: MemBytes × memoryFraction
	storageCap int64      // storage region: pool × storageFraction (hard cap)
	used       int64      // storage bytes held by in-memory blocks
	execUsed   int64      // execution bytes currently granted
	lru        *list.List // front = most recent; values are *block
}

// storageRoom is how many bytes storage may occupy right now: the storage
// region, shrunk when execution grants have eaten into the pool beyond its
// complement — shuffle pressure throttles caching, and vice versa.
func (st *executorStore) storageRoom() int64 {
	room := st.storageCap
	if r := st.pool - st.execUsed; r < room {
		room = r
	}
	return room
}

type memoryManager struct {
	mu     sync.Mutex
	stores map[int]*executorStore
	index  map[blockKey]*block
	// evictions counts blocks dropped for space, surfaced in metrics.
	evictions int64
	// shuffleResident tracks retained shuffle output bytes per executor. They
	// are visible (totalBytes) but not arbitrated: retained outputs model the
	// external shuffle service's on-disk files, outside the executor's heap,
	// and stay until the shuffle manager releases them — a node loss, an
	// injected fetch failure, or the cleanup that runs once no lineage can
	// reach their shuffle.
	shuffleResident map[int]int64
}

const (
	// memoryFraction is the share of executor memory forming the unified
	// storage+execution pool, the analogue of spark.memory.fraction. It is 1.0
	// rather than Spark's 0.6: Spark reserves the rest for user data
	// structures on the JVM heap, which the simulation does not model.
	memoryFraction = 1.0

	// storageFraction is the share of the unified pool reserved for cached
	// blocks (spark.memory.storageFraction). The remainder is execution
	// memory: sort-shuffle buffers and reduce-side merges draw on it through
	// the memory manager, and tasks whose working set exceeds their per-slot
	// share of it are charged spill I/O.
	storageFraction = 0.6
)

// newMemoryManager sizes every executor's pool and storage region; a Context
// passes the two constants above, unit tests pass small pools.
func newMemoryManager(cl *cluster.Cluster, poolShare, storageShare float64) *memoryManager {
	mm := &memoryManager{
		stores:          map[int]*executorStore{},
		index:           map[blockKey]*block{},
		shuffleResident: map[int]int64{},
	}
	for _, e := range cl.Executors() {
		pool := int64(float64(e.MemBytes) * poolShare)
		mm.stores[e.ID] = &executorStore{
			pool:       pool,
			storageCap: int64(float64(pool) * storageShare),
			lru:        list.New(),
		}
	}
	return mm
}

// acquireExecution grants bytes of execution memory on the executor, or — in
// acqSpill mode only — reports that the pool is exhausted. acqForce evicts
// cached blocks and always grants; evicted blocks are returned so the caller
// can publish BlockEvicted events from its task context.
func (mm *memoryManager) acquireExecution(executor int, bytes int64, mode acqMode) (ok bool, evicted []*block) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	st := mm.stores[executor]
	if bytes <= st.pool-st.execUsed-st.used {
		st.execUsed += bytes
		return true, nil
	}
	if mode == acqSpill {
		return false, nil
	}
	// Shed cached blocks, least recently used first, until the request fits
	// or storage is empty. Unlike put there is no same-RDD exemption: the
	// acquirer is execution, not a competing cache write.
	for e := st.lru.Back(); e != nil && bytes > st.pool-st.execUsed-st.used; {
		prev := e.Prev()
		b := e.Value.(*block)
		mm.removeLocked(b)
		mm.evictions++
		evicted = append(evicted, b)
		e = prev
	}
	st.execUsed += bytes
	return true, evicted
}

// releaseExecution returns granted execution bytes to the pool.
func (mm *memoryManager) releaseExecution(executor int, bytes int64) {
	if bytes == 0 {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.stores[executor].execUsed -= bytes
}

// addShuffleResident records retained shuffle output bytes on the executor
// (visibility accounting; see the shuffleResident field).
func (mm *memoryManager) addShuffleResident(executor int, bytes int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.shuffleResident[executor] += bytes
}

// get returns the cached value, its holding executor, and whether the block
// lives on the executor's disk (MEMORY_AND_DISK demotion) rather than in
// memory, marking in-memory blocks recently used.
func (mm *memoryManager) get(key blockKey) (v any, executor int, onDisk, ok bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	b, ok := mm.index[key]
	if !ok {
		return nil, 0, false, false
	}
	if !b.onDisk {
		mm.stores[b.executor].lru.MoveToFront(b.lruElem)
	}
	return b.value, b.executor, b.onDisk, true
}

// put stores a block on the executor, evicting least-recently-used blocks to
// make room — but, as in Spark's MemoryStore, never blocks of the same RDD:
// an RDD caching itself must not thrash its own partitions. If the block
// cannot fit in memory without breaking that rule, it is dropped under
// MEMORY_ONLY (the partition recomputes from lineage on later use) or
// written to the executor's disk under MEMORY_AND_DISK (diskFallback).
//
// It reports whether the block was stored (and where) and which blocks were
// evicted to make room, so the caller can publish BlockCached/BlockEvicted
// events; the returned blocks are no longer referenced by the manager.
func (mm *memoryManager) put(executor int, key blockKey, v any, bytes int64, diskFallback bool) (stored, onDisk bool, evicted []*block) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if _, dup := mm.index[key]; dup {
		return false, false, nil // another task cached this partition concurrently
	}
	st := mm.stores[executor]
	room := st.storageRoom()
	if bytes > room {
		if diskFallback {
			mm.index[key] = &block{key: key, executor: executor, value: v, bytes: bytes, onDisk: true}
			return true, true, nil
		}
		return false, false, nil
	}
	// Decide up front whether enough evictable (different-RDD) bytes exist.
	freeable := int64(0)
	for e := st.lru.Back(); e != nil; e = e.Prev() {
		if b := e.Value.(*block); b.key.rdd != key.rdd {
			freeable += b.bytes
		}
	}
	if st.used-freeable+bytes > room {
		if diskFallback {
			mm.index[key] = &block{key: key, executor: executor, value: v, bytes: bytes, onDisk: true}
			return true, true, nil
		}
		return false, false, nil
	}
	for e := st.lru.Back(); e != nil && st.used+bytes > room; {
		prev := e.Prev()
		if b := e.Value.(*block); b.key.rdd != key.rdd {
			mm.removeLocked(b)
			mm.evictions++
			evicted = append(evicted, b)
		}
		e = prev
	}
	b := &block{key: key, executor: executor, value: v, bytes: bytes}
	b.lruElem = st.lru.PushFront(b)
	st.used += bytes
	mm.index[key] = b
	return true, false, evicted
}

func (mm *memoryManager) removeLocked(b *block) {
	if !b.onDisk {
		st := mm.stores[b.executor]
		st.lru.Remove(b.lruElem)
		st.used -= b.bytes
	}
	delete(mm.index, b.key)
}

// dropExecutor discards every block held by the executor (executor failure),
// memory and disk alike.
func (mm *memoryManager) dropExecutor(executor int) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for key, b := range mm.index {
		_ = key
		if b.executor == executor {
			mm.removeLocked(b)
		}
	}
}

// dropRDD removes every cached partition of the RDD (Unpersist).
func (mm *memoryManager) dropRDD(rddID int) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for key, b := range mm.index {
		if key.rdd == rddID {
			mm.removeLocked(b)
		}
	}
}

// storageBytes is the total bytes of in-memory cached blocks across
// executors (disk-demoted blocks occupy no storage memory).
func (mm *memoryManager) storageBytes() int64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var total int64
	for _, st := range mm.stores {
		total += st.used
	}
	return total
}

// totalBytes is everything the manager accounts for across executors: cached
// blocks, outstanding execution grants, and retained shuffle outputs (which
// the seed's accounting missed entirely).
func (mm *memoryManager) totalBytes() int64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var total int64
	for _, st := range mm.stores {
		total += st.used + st.execUsed
	}
	for _, b := range mm.shuffleResident {
		total += b
	}
	return total
}

// shuffleResidentBytes is the retained shuffle output total across executors.
func (mm *memoryManager) shuffleResidentBytes() int64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var total int64
	for _, b := range mm.shuffleResident {
		total += b
	}
	return total
}

func (mm *memoryManager) evictionCount() int64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.evictions
}
