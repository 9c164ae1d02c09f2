// The served-result cache. A request's answer is fully determined by the
// analysis (dataset, options, seed) and the request's own parameters — the
// same facts that determine the lineage of the jobs it would run — so results
// are cached under a fingerprint of exactly those inputs and a hit skips job
// submission entirely.
//
// Validity is tied to the engine's storage epoch: Context.StorageEpoch()
// advances whenever injected node or executor loss drops cached blocks, and
// an entry recorded under an older epoch is discarded on lookup. This is
// deliberately conservative — recomputation from lineage would return the
// same numbers — but it means a served result is always backed by blocks
// that were live when it was produced, mirroring how a driver-side cache
// over Spark RDDs must revalidate after block-manager loss.

package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Fingerprint condenses the strings that determine a request's result into a
// cache key.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"` // entries dropped on epoch mismatch
	Evictions     uint64 `json:"evictions"`     // entries dropped by LRU pressure
}

type cacheEntry struct {
	key   string
	epoch uint64 // Context.StorageEpoch() when the result was produced
	body  []byte // encoded result payload
}

// cacheEntries caps the result cache.
const cacheEntries = 64

// resultCache is a small LRU over encoded result payloads.
type resultCache struct {
	mu      sync.Mutex
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses, invalidations, evictions uint64
}

func newResultCache() *resultCache {
	return &resultCache{
		order:   list.New(),
		entries: map[string]*list.Element{},
	}
}

// get returns the cached body for key if it was stored at the given storage
// epoch. An entry from an earlier epoch may depend on blocks a fault has
// since destroyed; it is invalidated instead of served.
func (c *resultCache) get(key string, epoch uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		c.order.Remove(el)
		delete(c.entries, key)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return ent.body, true
}

// put records body under key at the given epoch, evicting the least recently
// used entry when over capacity.
func (c *resultCache) put(key string, epoch uint64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.epoch, ent.body = epoch, body
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, epoch: epoch, body: body})
	for len(c.entries) > cacheEntries {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
	}
}
