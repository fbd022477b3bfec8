package service

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// cacheShards fixes the shard count: enough to keep lock contention off the
// hot path at typical core counts, small enough that a tiny cache still
// gets a useful per-shard capacity.
const cacheShards = 16

// lruCache is a bounded, sharded LRU of cached values: serialized
// responses, and co-exploration fronts held decoded. Each shard holds its
// own lock, map and recency list; a key's shard is its maphash, so
// canonical request hashes spread uniformly. Every shard is bounded twice:
// by its share of the entry cap and by its share of DefaultCacheBytes,
// counting each entry's key bytes and the size its Put gave it (a
// response's length, a front's JSON length). A full-size /v1/prr batch
// reply is ~260 KB, so the entry cap alone would let 4,096 of them pin a
// gigabyte.
type lruCache struct {
	seed   maphash.Seed
	shards [cacheShards]lruShard
}

type lruShard struct {
	mu       sync.Mutex
	cap      int // entries
	maxBytes int
	bytes    int        // key bytes and value sizes held
	ll       *list.List // front = most recent
	items    map[string]*list.Element
}

type lruEntry struct {
	key  string
	val  any
	size int // the bytes val counts against the byte bound
}

// newLRUCache bounds the cache at totalEntries and DefaultCacheBytes across
// all shards. totalEntries <= 0 disables caching (every Get misses, Put
// drops).
func newLRUCache(totalEntries int) *lruCache {
	c := &lruCache{seed: maphash.MakeSeed()}
	per := 0
	if totalEntries > 0 {
		per = (totalEntries + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.maxBytes = DefaultCacheBytes / cacheShards
		s.ll = list.New()
		s.items = make(map[string]*list.Element)
	}
	return c
}

func (c *lruCache) shard(key string) *lruShard {
	return &c.shards[maphash.String(c.seed, key)%cacheShards]
}

// Get returns the cached value and refreshes its recency.
func (c *lruCache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts (or refreshes) val, counting size bytes for it besides its
// key, and returns how many entries the shard evicted to stay within both
// its bounds. A value too large for a shard's byte budget is not cached.
func (c *lruCache) Put(key string, val any, size int) (evicted int) {
	s := c.shard(key)
	if s.cap <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.remove(el)
	}
	if len(key)+size > s.maxBytes {
		return 0
	}
	s.items[key] = s.ll.PushFront(&lruEntry{key: key, val: val, size: size})
	s.bytes += len(key) + size
	for s.ll.Len() > s.cap || s.bytes > s.maxBytes {
		s.remove(s.ll.Back())
		evicted++
	}
	return evicted
}

// remove drops one entry from the shard; the caller holds s.mu.
func (s *lruShard) remove(el *list.Element) {
	e := s.ll.Remove(el).(*lruEntry)
	delete(s.items, e.key)
	s.bytes -= len(e.key) + e.size
}

// Len is the current entry count across shards.
func (c *lruCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
