package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// newTestCache is an lruCache counting into a registry of its own.
func newTestCache(entries int) *lruCache {
	return newLRUCache(entries, newServiceMetrics(obs.NewRegistry()))
}

// store computes val for key, which the cache then holds unless the entry
// is uncacheable.
func store(c *lruCache, key string, val any, size int) {
	c.Do(key, func() (any, int, error) { return val, size, nil })
}

var errUncached = errors.New("not in the cache")

// get returns key's stored value, refreshing its recency; a miss computes
// nothing the cache would store.
func get(c *lruCache, key string) (any, bool) {
	val, hit, _ := c.Do(key, func() (any, int, error) { return nil, 0, errUncached })
	return val, hit
}

// held returns the entries the cache holds and the key and value bytes of
// those that are []byte, walking the recency list rather than trusting the
// cache's own accounting.
func held(c *lruCache) (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if b, ok := e.val.([]byte); ok {
			bytes += len(e.key) + len(b)
		}
	}
	return c.ll.Len(), bytes
}

// TestLRUBasics: a miss computes and stores, a repeat hits with the stored
// value without computing, and a failed compute is not stored.
func TestLRUBasics(t *testing.T) {
	c := newTestCache(1)
	if _, ok := get(c, "absent"); ok {
		t.Fatal("empty cache reported a hit")
	}
	store(c, "k", "v", 1)
	val, hit, err := c.Do("k", func() (any, int, error) {
		t.Error("a stored key was computed again")
		return nil, 0, nil
	})
	if !hit || val != "v" || err != nil {
		t.Fatalf("Do(k) = %v, %v, %v; want v, true, nil", val, hit, err)
	}
	if _, _, err := c.Do("bad", func() (any, int, error) { return nil, 0, errUncached }); err != errUncached {
		t.Fatalf("failed compute returned %v", err)
	}
	if _, ok := get(c, "bad"); ok {
		t.Error("a failed compute was stored")
	}
	if n, _ := held(c); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	m := c.met
	if h, miss := m.cacheHits.Value(), m.cacheMisses.Value(); h != 1 || miss != 4 {
		t.Errorf("hits, misses = %d, %d; want 1, 4", h, miss)
	}
}

// TestLRUEvictionBound: the cache holds exactly its entry cap once more
// distinct keys than that have flowed through, and counts every eviction.
func TestLRUEvictionBound(t *testing.T) {
	const total = 32
	c := newTestCache(total)
	for i := 0; i < 50*total; i++ {
		store(c, fmt.Sprintf("key-%d", i), i, 1)
		if n, _ := held(c); n > total {
			t.Fatalf("cache grew to %d entries, bound is %d", n, total)
		}
	}
	if n, _ := held(c); n != total {
		t.Errorf("cache holds %d entries, cap is %d", n, total)
	}
	if got := c.met.cacheEntries.Value(); got != total {
		t.Errorf("entries gauge = %d, want %d", got, total)
	}
	if ev := c.met.cacheEvictions.Value(); ev != 49*total {
		t.Errorf("%d evictions counted, want %d", ev, 49*total)
	}
}

// TestLRUByteBound: a default-size cache filled with maximum-size replies
// (a 1024-item /v1/prr batch measured 262,946 bytes) stays within
// DefaultCacheBytes by evicting, instead of pinning 4,096 of them. A reply
// larger than maxEntryBytes is not cached at all.
func TestLRUByteBound(t *testing.T) {
	c := newTestCache(DefaultCacheEntries)
	reply := make([]byte, 262946) // shared: the test itself stays small
	for i := 0; i < DefaultCacheEntries; i++ {
		store(c, fmt.Sprintf("prr@%064x", i), reply, len(reply))
		if _, b := held(c); b > DefaultCacheBytes {
			t.Fatalf("after %d puts the cache holds %d bytes, bound is %d", i+1, b, DefaultCacheBytes)
		}
	}
	n, _ := held(c)
	evicted := int(c.met.cacheEvictions.Value())
	if evicted == 0 || n+evicted != DefaultCacheEntries {
		t.Errorf("%d entries held, %d evicted, from %d puts", n, evicted, DefaultCacheEntries)
	}
	if _, ok := get(c, fmt.Sprintf("prr@%064x", DefaultCacheEntries-1)); !ok {
		t.Error("the most recent reply was not cached")
	}

	huge := make([]byte, maxEntryBytes+1)
	store(c, "huge", huge, len(huge))
	if ev := int(c.met.cacheEvictions.Value()); ev != evicted {
		t.Errorf("an uncacheable reply evicted %d entries", ev-evicted)
	}
	if _, ok := get(c, "huge"); ok {
		t.Error("a reply larger than maxEntryBytes was cached")
	}
}

// TestLRURecency: touching an entry protects it from the next eviction.
func TestLRURecency(t *testing.T) {
	c := newTestCache(2)
	store(c, "a", "a", 1)
	store(c, "b", "b", 1)
	get(c, "a")           // refresh: b is now coldest
	store(c, "c", "c", 1) // evicts b
	if _, ok := get(c, "a"); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := get(c, "b"); ok {
		t.Error("coldest entry survived eviction")
	}
}

// TestLRUDisabled: zero capacity computes every lookup and stores nothing.
func TestLRUDisabled(t *testing.T) {
	c := newTestCache(0)
	computes := 0
	for i := 0; i < 2; i++ {
		if _, hit, _ := c.Do("k", func() (any, int, error) { computes++; return "v", 1, nil }); hit {
			t.Error("disabled cache served a hit")
		}
	}
	if computes != 2 {
		t.Errorf("computed %d times for two sequential lookups, want 2", computes)
	}
	if n, _ := held(c); n != 0 {
		t.Error("disabled cache holds entries")
	}
}

// TestLRUConcurrent hammers the cache from many goroutines under -race.
func TestLRUConcurrent(t *testing.T) {
	c := newTestCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k-%d", (g*31+i)%128)
				if v, _, _ := c.Do(k, func() (any, int, error) { return k, len(k), nil }); v != k {
					t.Errorf("Do(%s) = %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := held(c); n > 64 {
		t.Fatalf("cache holds %d entries, bound is 64", n)
	}
}

// TestCacheJoinersShare: callers arriving while the leader computes join
// its flight and share its value; exactly one compute happens, with the
// cache on and off.
func TestCacheJoinersShare(t *testing.T) {
	for _, entries := range []int{4, 0} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			c := newTestCache(entries)
			started, gate := make(chan struct{}), make(chan struct{})
			var computes atomic.Int64
			compute := func() (any, int, error) {
				if computes.Add(1) == 1 {
					close(started)
				}
				<-gate
				return "out", 3, nil
			}
			leaderDone := make(chan any, 1)
			go func() {
				val, _, _ := c.Do("key", compute)
				leaderDone <- val
			}()
			<-started

			const joiners = 7
			var wg sync.WaitGroup
			for i := 0; i < joiners; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					val, hit, err := c.Do("key", compute)
					if err != nil || hit || val != "out" {
						t.Errorf("joiner got %v, hit=%v, %v", val, hit, err)
					}
				}()
			}
			// A joiner counts as coalesced in the locked step that joins
			// it to the flight, so no joiner can still lead a compute.
			waitCounter(t, c.met.coalesced, joiners)
			close(gate)
			if v := <-leaderDone; v != "out" {
				t.Fatalf("leader got %v", v)
			}
			wg.Wait()
			if n := computes.Load(); n != 1 {
				t.Fatalf("computed %d times for one key, want 1", n)
			}
			if got := c.met.cacheMisses.Value(); got != joiners+1 {
				t.Errorf("misses = %d, want %d", got, joiners+1)
			}
		})
	}
}

// TestCacheHitAfterLeader: a caller that arrives once the leader has
// finished gets a hit and never recomputes, however the callers race the
// leader's store: no caller falls between a missed lookup and the flight.
func TestCacheHitAfterLeader(t *testing.T) {
	const rounds, callers = 200, 8
	for r := 0; r < rounds; r++ {
		c := newTestCache(4)
		var computes atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Do("key", func() (any, int, error) {
					computes.Add(1)
					return "out", 3, nil
				})
			}()
		}
		wg.Wait()
		if n := computes.Load(); n != 1 {
			t.Fatalf("round %d: %d computes for one key, want 1", r, n)
		}
		m := c.met
		if m.cacheHits.Value()+m.cacheMisses.Value() != callers || m.coalesced.Value() != m.cacheMisses.Value()-1 {
			t.Fatalf("round %d: hits %d, misses %d, coalesced %d from %d callers",
				r, m.cacheHits.Value(), m.cacheMisses.Value(), m.coalesced.Value(), callers)
		}
		if _, hit, _ := c.Do("key", func() (any, int, error) {
			t.Error("a caller after the leader recomputed")
			return nil, 0, nil
		}); !hit {
			t.Errorf("round %d: a caller after the leader missed", r)
		}
	}
}
