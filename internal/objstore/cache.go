package objstore

import (
	"container/list"
	"sync"
)

// BlockCache is the bounded local cache for blocks fetched from the
// object store: LRU by payload bytes, refcounted so a block pinned by a
// live read is never evicted under it (the budget may be temporarily
// exceeded by pinned bytes), with single-flight per block so concurrent
// scans of the same evicted segment fetch each block once.
type BlockCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	lru     *list.List // front = most recent; holds *cacheEntry
	entries map[blockID]*cacheEntry
	flights map[blockID]*flight

	hits    uint64
	misses  uint64
	evicted uint64
}

// blockID names a block by its object and its byte offset there, which
// tells apart equal block indexes of the sections one object holds.
type blockID struct {
	key string // object key
	off int64  // the block's offset within the object
}

type cacheEntry struct {
	id   blockID
	data []byte
	refs int
	elem *list.Element
}

type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// NewBlockCache creates a cache bounded at budget payload bytes. A zero
// or negative budget caches nothing (every Get misses, fetched blocks
// are returned but not retained).
func NewBlockCache(budget int64) *BlockCache {
	return &BlockCache{
		budget:  budget,
		lru:     list.New(),
		entries: make(map[blockID]*cacheEntry),
		flights: make(map[blockID]*flight),
	}
}

// GetOrFetch returns the block at off of object key, cached, or fetches
// it via fetch exactly
// once per concurrent group of callers. The returned bytes are pinned —
// the caller MUST call release (exactly once) when done, after which the
// bytes may be evicted and must not be read. fetch runs without the
// cache lock held; its error is returned to every waiter of the flight
// and nothing is cached.
func (c *BlockCache) GetOrFetch(key string, off int64, fetch func() ([]byte, error)) (data []byte, release func(), err error) {
	id := blockID{key: key, off: off}
	for {
		c.mu.Lock()
		if e, ok := c.entries[id]; ok {
			e.refs++
			c.lru.MoveToFront(e.elem)
			c.hits++
			c.mu.Unlock()
			return e.data, func() { c.release(e) }, nil
		}
		if fl, ok := c.flights[id]; ok {
			// Another caller is fetching this block; wait for it, then
			// re-check the cache (the flight may or may not have cached).
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, nil, fl.err
			}
			c.mu.Lock()
			if e, ok := c.entries[id]; ok {
				e.refs++
				c.lru.MoveToFront(e.elem)
				c.hits++
				c.mu.Unlock()
				return e.data, func() { c.release(e) }, nil
			}
			// Budget too small to retain it — hand the flight's bytes out
			// unpinned (nothing to release).
			c.mu.Unlock()
			return fl.data, func() {}, nil
		}
		fl := &flight{done: make(chan struct{})}
		c.flights[id] = fl
		c.misses++
		c.mu.Unlock()

		fl.data, fl.err = fetch()

		c.mu.Lock()
		delete(c.flights, id)
		if fl.err == nil {
			c.insertLocked(id, fl.data)
		}
		c.mu.Unlock()
		close(fl.done)
		if fl.err != nil {
			return nil, nil, fl.err
		}
		if e, ok := c.pin(id); ok {
			return e.data, func() { c.release(e) }, nil
		}
		return fl.data, func() {}, nil
	}
}

// pin bumps the refcount of id if cached.
func (c *BlockCache) pin(id blockID) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	e.refs++
	c.lru.MoveToFront(e.elem)
	return e, true
}

// insertLocked caches data under id if it fits the budget at all,
// evicting unpinned LRU entries to make room.
func (c *BlockCache) insertLocked(id blockID, data []byte) {
	size := int64(len(data))
	if size > c.budget {
		return
	}
	if _, ok := c.entries[id]; ok {
		return
	}
	c.evictLocked(c.budget - size)
	e := &cacheEntry{id: id, data: data}
	e.elem = c.lru.PushFront(e)
	c.entries[id] = e
	c.used += size
}

// evictLocked drops unpinned entries, LRU first, until used <= target.
// Pinned entries are skipped — the budget may stay exceeded until their
// readers release them.
func (c *BlockCache) evictLocked(target int64) {
	for el := c.lru.Back(); el != nil && c.used > target; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.refs == 0 {
			c.lru.Remove(el)
			delete(c.entries, e.id)
			c.used -= int64(len(e.data))
			c.evicted++
		}
		el = prev
	}
}

func (c *BlockCache) release(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.refs--
	if c.used > c.budget {
		c.evictLocked(c.budget)
	}
}

// Drop evicts every unpinned cached block of object key in [lo, hi): the
// range of a retired section, whose siblings' blocks stay.
func (c *BlockCache) Drop(key string, lo, hi int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.id.key == key && lo <= e.id.off && e.id.off < hi && e.refs == 0 {
			c.lru.Remove(el)
			delete(c.entries, e.id)
			c.used -= int64(len(e.data))
		}
		el = prev
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Budget  int64
	Used    int64
	Entries int
	Hits    uint64
	Misses  uint64
	Evicted uint64
}

// Stats snapshots the cache.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Budget:  c.budget,
		Used:    c.used,
		Entries: len(c.entries),
		Hits:    c.hits,
		Misses:  c.misses,
		Evicted: c.evicted,
	}
}
