package query

import (
	"container/list"
	"sync"
)

// resultCache is an LRU cache for big-data query results, keyed on the
// canonical (op, context, parameters) encoding of a request. Every entry
// records the store generation it was computed at; a lookup whose entry
// predates the current generation is treated as a miss and evicted, so
// every write invalidates cached results simply by landing (see
// store.DB.Generation).
//
// Cached values are returned by reference and must be treated as
// immutable by callers.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element

	hits          int64
	misses        int64
	invalidations int64
}

type cacheEntry struct {
	key string
	gen uint64
	val any
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// get returns the cached value for key if present and computed at the
// current generation.
func (c *resultCache) get(key string, gen uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		// Stale: the store has changed since this result was computed.
		c.ll.Remove(el)
		delete(c.m, key)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ent.val, true
}

// put stores a value computed at generation gen, evicting the least
// recently used entry when full.
func (c *resultCache) put(key string, gen uint64, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.gen, ent.val = gen, val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// CacheStats is a snapshot of result-cache counters.
type CacheStats struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
}

func (c *resultCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:          c.ll.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
	}
}
