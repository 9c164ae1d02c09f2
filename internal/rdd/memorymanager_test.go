package rdd

import (
	"testing"

	"sparkscore/internal/cluster"
)

func newTestMM(t *testing.T, memGiB float64) *memoryManager {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:            1,
		Spec:             cluster.NodeSpec{Name: "t", VCPUs: 4, MemGiB: memGiB * 2},
		ExecutorsPerNode: 2, CoresPerExecutor: 2, MemPerExecutorGiB: memGiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newMemoryManager(cl, 1.0, 0.5) // storage capacity = memGiB/2 per executor
}

func TestMemoryManagerPutGet(t *testing.T) {
	mm := newTestMM(t, 1)
	key := blockKey{rdd: 1, part: 0}
	mm.put(0, key, "hello", 100, false)
	v, holder, _, ok := mm.get(key)
	if !ok || v != "hello" || holder != 0 {
		t.Fatalf("get = (%v,%d,%v)", v, holder, ok)
	}
	if _, _, _, ok := mm.get(blockKey{rdd: 1, part: 9}); ok {
		t.Fatal("missing block found")
	}
	if mm.totalBytes() != 100 {
		t.Fatalf("totalBytes = %d", mm.totalBytes())
	}
}

func TestMemoryManagerDuplicatePutIgnored(t *testing.T) {
	mm := newTestMM(t, 1)
	key := blockKey{rdd: 1, part: 0}
	mm.put(0, key, "first", 100, false)
	mm.put(1, key, "second", 100, false)
	v, holder, _, _ := mm.get(key)
	if v != "first" || holder != 0 {
		t.Fatalf("duplicate put replaced block: (%v,%d)", v, holder)
	}
	if mm.totalBytes() != 100 {
		t.Fatalf("totalBytes = %d after duplicate put", mm.totalBytes())
	}
}

func TestMemoryManagerLRUEviction(t *testing.T) {
	mm := newTestMM(t, 1) // 512 MiB storage capacity per executor
	cap := int64(512 << 20)
	a := blockKey{rdd: 1, part: 0}
	b := blockKey{rdd: 2, part: 0}
	c := blockKey{rdd: 3, part: 0}
	mm.put(0, a, "a", cap/2, false)
	mm.put(0, b, "b", cap/2, false)
	// Touch a so b becomes least-recently-used.
	mm.get(a)
	mm.put(0, c, "c", cap/2, false)
	if _, _, _, ok := mm.get(b); ok {
		t.Fatal("LRU block b survived eviction")
	}
	if _, _, _, ok := mm.get(a); !ok {
		t.Fatal("recently-used block a evicted")
	}
	if _, _, _, ok := mm.get(c); !ok {
		t.Fatal("new block c not stored")
	}
	if mm.evictionCount() != 1 {
		t.Fatalf("evictions = %d, want 1", mm.evictionCount())
	}
}

func TestMemoryManagerSameRDDNeverEvictsItself(t *testing.T) {
	// Spark's MemoryStore rule: caching a partition of RDD r never evicts
	// other partitions of r — the incoming block is dropped instead.
	mm := newTestMM(t, 1)
	cap := int64(512 << 20)
	a := blockKey{rdd: 1, part: 0}
	b := blockKey{rdd: 1, part: 1}
	c := blockKey{rdd: 1, part: 2}
	mm.put(0, a, "a", cap/2, false)
	mm.put(0, b, "b", cap/2, false)
	mm.put(0, c, "c", cap/2, false)
	if _, _, _, ok := mm.get(a); !ok {
		t.Fatal("same-RDD block a evicted")
	}
	if _, _, _, ok := mm.get(b); !ok {
		t.Fatal("same-RDD block b evicted")
	}
	if _, _, _, ok := mm.get(c); ok {
		t.Fatal("overflow block c stored despite same-RDD protection")
	}
	if mm.evictionCount() != 0 {
		t.Fatalf("evictions = %d, want 0", mm.evictionCount())
	}
	// A different RDD's block may still evict them.
	d := blockKey{rdd: 2, part: 0}
	mm.put(0, d, "d", cap/2, false)
	if _, _, _, ok := mm.get(d); !ok {
		t.Fatal("different-RDD block not stored")
	}
	if mm.evictionCount() != 1 {
		t.Fatalf("evictions = %d, want 1 after cross-RDD put", mm.evictionCount())
	}
}

func TestMemoryManagerOversizedBlockNotStored(t *testing.T) {
	mm := newTestMM(t, 1)
	key := blockKey{rdd: 1, part: 0}
	mm.put(0, key, "big", 1<<40, false)
	if _, _, _, ok := mm.get(key); ok {
		t.Fatal("oversized block stored")
	}
}

func TestMemoryManagerDropExecutor(t *testing.T) {
	mm := newTestMM(t, 1)
	mm.put(0, blockKey{rdd: 1, part: 0}, "x", 10, false)
	mm.put(1, blockKey{rdd: 1, part: 1}, "y", 10, false)
	mm.dropExecutor(0)
	if _, _, _, ok := mm.get(blockKey{rdd: 1, part: 0}); ok {
		t.Fatal("block on failed executor survived")
	}
	if _, _, _, ok := mm.get(blockKey{rdd: 1, part: 1}); !ok {
		t.Fatal("block on live executor dropped")
	}
	if mm.totalBytes() != 10 {
		t.Fatalf("totalBytes = %d", mm.totalBytes())
	}
}

func TestMemoryManagerDropRDD(t *testing.T) {
	mm := newTestMM(t, 1)
	mm.put(0, blockKey{rdd: 1, part: 0}, "x", 10, false)
	mm.put(0, blockKey{rdd: 2, part: 0}, "y", 10, false)
	mm.dropRDD(1)
	if _, _, _, ok := mm.get(blockKey{rdd: 1, part: 0}); ok {
		t.Fatal("dropped RDD block survived")
	}
	if _, _, _, ok := mm.get(blockKey{rdd: 2, part: 0}); !ok {
		t.Fatal("other RDD's block dropped")
	}
}

// --- execution/storage arbitration ---

func TestAcquireExecutionGrantAndRelease(t *testing.T) {
	mm := newTestMM(t, 1) // pool = 1 GiB per executor
	pool := int64(1 << 30)
	ok, evicted := mm.acquireExecution(0, pool/2, acqSpill)
	if !ok || evicted != nil {
		t.Fatalf("grant within pool = (%v, %v)", ok, evicted)
	}
	if mm.totalBytes() != pool/2 {
		t.Fatalf("totalBytes = %d after grant", mm.totalBytes())
	}
	// A spillable request beyond the remainder is denied without eviction.
	if ok, _ := mm.acquireExecution(0, pool, acqSpill); ok {
		t.Fatal("over-pool spillable request granted")
	}
	mm.releaseExecution(0, pool/2)
	if mm.totalBytes() != 0 {
		t.Fatalf("totalBytes = %d after release", mm.totalBytes())
	}
	// Executors have independent pools.
	if ok, _ := mm.acquireExecution(1, pool, acqSpill); !ok {
		t.Fatal("full-pool grant on idle executor denied")
	}
}

func TestAcquireExecutionSpillModeNeverEvicts(t *testing.T) {
	mm := newTestMM(t, 1)
	pool := int64(1 << 30)
	mm.put(0, blockKey{rdd: 1, part: 0}, "cached", pool/2, false) // fills storage region
	if ok, _ := mm.acquireExecution(0, pool*3/4, acqSpill); ok {
		t.Fatal("spillable request granted past storage occupancy")
	}
	if _, _, _, ok := mm.get(blockKey{rdd: 1, part: 0}); !ok {
		t.Fatal("spillable denial evicted a cached block")
	}
}

func TestAcquireExecutionForceEvictsThenOvercommits(t *testing.T) {
	mm := newTestMM(t, 1)
	pool := int64(1 << 30)
	mm.put(0, blockKey{rdd: 1, part: 0}, "a", pool/4, false)
	mm.put(0, blockKey{rdd: 1, part: 1}, "b", pool/4, false)
	// Needs 5/8 of the pool: storage must shed one block (LRU first).
	ok, evicted := mm.acquireExecution(0, pool*5/8, acqForce)
	if !ok {
		t.Fatal("forced request denied despite evictable storage")
	}
	if len(evicted) != 1 || evicted[0].key != (blockKey{rdd: 1, part: 0}) {
		t.Fatalf("evicted %v, want LRU block {1 0}", evicted)
	}
	if _, _, _, ok := mm.get(blockKey{rdd: 1, part: 1}); !ok {
		t.Fatal("forced request evicted more than needed")
	}
	// A request no amount of eviction can satisfy sheds what storage is left
	// and is granted anyway: execution overshoots the pool.
	ok, evicted = mm.acquireExecution(0, pool*2, acqForce)
	if !ok || len(evicted) != 1 {
		t.Fatalf("over-pool forced request = (%v, %d evicted), want granted after shedding 1 block", ok, len(evicted))
	}
	if want := pool*5/8 + pool*2; mm.totalBytes() != want {
		t.Fatalf("totalBytes = %d, want overcommitted %d", mm.totalBytes(), want)
	}
}

func TestExecutionPressureThrottlesStorage(t *testing.T) {
	// Execution grants past the pool's non-storage region shrink the room
	// storage may occupy: caching under shuffle pressure drops blocks.
	mm := newTestMM(t, 1)
	pool := int64(1 << 30)
	if ok, _ := mm.acquireExecution(0, pool*3/4, acqSpill); !ok {
		t.Fatal("grant within empty pool denied")
	}
	stored, onDisk, _ := mm.put(0, blockKey{rdd: 1, part: 0}, "x", pool/2, false)
	if stored {
		t.Fatal("block stored past the execution-shrunk storage room")
	}
	stored, onDisk, _ = mm.put(0, blockKey{rdd: 1, part: 1}, "y", pool/2, true)
	if !stored || !onDisk {
		t.Fatalf("MEMORY_AND_DISK block under pressure = (%v, %v), want disk demotion", stored, onDisk)
	}
	// Within the shrunk room, storage still works.
	if stored, _, _ := mm.put(0, blockKey{rdd: 1, part: 2}, "z", pool/8, false); !stored {
		t.Fatal("block within shrunk room not stored")
	}
}

func TestShuffleResidentAccounting(t *testing.T) {
	mm := newTestMM(t, 1)
	mm.addShuffleResident(0, 1000)
	mm.addShuffleResident(1, 500)
	if got := mm.shuffleResidentBytes(); got != 1500 {
		t.Fatalf("shuffleResidentBytes = %d", got)
	}
	if got := mm.totalBytes(); got != 1500 {
		t.Fatalf("totalBytes = %d", got)
	}
	if got := mm.storageBytes(); got != 0 {
		t.Fatalf("storageBytes = %d, resident shuffle output is not cache", got)
	}
	mm.addShuffleResident(0, -1000)
	if got := mm.shuffleResidentBytes(); got != 500 {
		t.Fatalf("shuffleResidentBytes = %d after release", got)
	}
}
