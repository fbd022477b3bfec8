package service

import (
	"container/list"
	"sync"
)

// maxEntryBytes is the most key and value bytes one entry may count: a
// sixteenth of DefaultCacheBytes, so a single reply cannot flush the cache.
const maxEntryBytes = DefaultCacheBytes / 16

// lruCache is costd's one cached path: a bounded LRU of cached values
// (serialized responses, and co-exploration fronts held decoded) and the
// computes in flight for missing keys, under one lock. A key is stored, in
// flight or absent, so Do decides hit, join or lead in a single locked step
// and no compute starts for a key another has just stored. The LRU is
// bounded twice: by its entry cap and by DefaultCacheBytes, counting each
// entry's key bytes and the size its compute gave it (a response's length,
// a front's JSON length). A full-size /v1/prr batch reply is ~260 KB, so
// the entry cap alone would let 4,096 of them pin a gigabyte.
type lruCache struct {
	met *serviceMetrics

	mu      sync.Mutex
	cap     int        // entries
	bytes   int        // key bytes and value sizes held
	ll      *list.List // front = most recent
	items   map[string]*list.Element
	flights map[string]*flight
}

type lruEntry struct {
	key  string
	val  any
	size int // the bytes val counts against the byte bound
}

// flight is one compute in progress; joiners wait on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// newLRUCache bounds the cache at entries and DefaultCacheBytes and counts
// its lookups in met. entries <= 0 stores nothing, but concurrent computes
// of one key still coalesce.
func newLRUCache(entries int, met *serviceMetrics) *lruCache {
	return &lruCache{
		met:     met,
		cap:     entries,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Do returns key's value: the stored one (hit), else the one the compute in
// flight for key returns (a coalesced miss), else its own compute's, which
// it stores with the size compute gives it unless compute fails or the
// entry is larger than maxEntryBytes. Errors are not stored. Every caller
// of one key shares one value, so callers must only read it.
func (c *lruCache) Do(key string, compute func() (val any, size int, err error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*lruEntry).val
		c.mu.Unlock()
		c.met.cacheHits.Inc()
		return val, true, nil
	}
	c.met.cacheMisses.Inc()
	if f, ok := c.flights[key]; ok {
		c.met.coalesced.Inc()
		c.mu.Unlock()
		<-f.done
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	var size int
	f.val, size, f.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && c.cap > 0 && len(key)+size <= maxEntryBytes {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: f.val, size: size})
		c.bytes += len(key) + size
		for c.ll.Len() > c.cap || c.bytes > DefaultCacheBytes {
			e := c.ll.Remove(c.ll.Back()).(*lruEntry)
			delete(c.items, e.key)
			c.bytes -= len(e.key) + e.size
			c.met.cacheEvictions.Inc()
		}
		c.met.cacheEntries.Set(int64(c.ll.Len()))
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}
