package service

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestLRUBasics: hits return what was put, recency protects the reused key,
// and the per-shard bound evicts the coldest entry.
func TestLRUBasics(t *testing.T) {
	c := newLRUCache(cacheShards) // one entry per shard
	if _, ok := c.Get("absent"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("k", "v", 1)
	got, ok := c.Get("k")
	if !ok || got != "v" {
		t.Fatalf("Get(k) = %v, %v; want v, true", got, ok)
	}
	// Refresh overwrites in place without growing.
	c.Put("k", "v2", 2)
	if got, _ := c.Get("k"); got != "v2" {
		t.Fatalf("refresh kept stale value %v", got)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d after refreshing one key, want 1", n)
	}
}

// TestLRUEvictionBound: the cache never exceeds its total entry bound, no
// matter how many distinct keys flow through, and eviction picks the least
// recently used entry of the shard.
func TestLRUEvictionBound(t *testing.T) {
	const total = 2 * cacheShards
	c := newLRUCache(total)
	evicted := 0
	for i := 0; i < 50*total; i++ {
		evicted += c.Put(fmt.Sprintf("key-%d", i), i, 1)
		if n := c.Len(); n > total {
			t.Fatalf("cache grew to %d entries, bound is %d", n, total)
		}
	}
	if evicted == 0 {
		t.Fatal("no evictions under a 50x overflow")
	}
	if n := c.Len(); n > total {
		t.Fatalf("final Len = %d, bound is %d", n, total)
	}
}

// heldBytes sums the key and response bytes the cache holds, walking the
// shards' recency lists and measuring each []byte response rather than
// trusting the cache's own accounting.
func heldBytes(c *lruCache) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*lruEntry)
			n += len(e.key) + len(e.val.([]byte))
		}
		s.mu.Unlock()
	}
	return n
}

// TestLRUByteBound: a default-size cache filled with maximum-size replies
// (a 1024-item /v1/prr batch measured 262,946 bytes) stays within
// DefaultCacheBytes by evicting, instead of pinning 4,096 of them. A reply
// larger than a shard's byte budget is not cached at all.
func TestLRUByteBound(t *testing.T) {
	c := newLRUCache(DefaultCacheEntries)
	reply := make([]byte, 262946) // shared: the test itself stays small
	evicted := 0
	for i := 0; i < DefaultCacheEntries; i++ {
		evicted += c.Put(fmt.Sprintf("prr@%064x", i), reply, len(reply))
		if held := heldBytes(c); held > DefaultCacheBytes {
			t.Fatalf("after %d puts the cache holds %d bytes, bound is %d", i+1, held, DefaultCacheBytes)
		}
	}
	if evicted == 0 || c.Len()+evicted != DefaultCacheEntries {
		t.Errorf("%d entries held, %d evicted, from %d puts", c.Len(), evicted, DefaultCacheEntries)
	}
	if _, ok := c.Get(fmt.Sprintf("prr@%064x", DefaultCacheEntries-1)); !ok {
		t.Error("the most recent reply was not cached")
	}

	huge := make([]byte, DefaultCacheBytes/cacheShards+1)
	if ev := c.Put("huge", huge, len(huge)); ev != 0 {
		t.Errorf("an uncacheable reply evicted %d entries", ev)
	}
	if _, ok := c.Get("huge"); ok {
		t.Error("a reply larger than a shard's byte budget was cached")
	}
}

// TestLRURecency: within one shard, touching an entry protects it from the
// next eviction.
func TestLRURecency(t *testing.T) {
	c := newLRUCache(2 * cacheShards) // two entries per shard
	// Find three keys in the same shard.
	shard := c.shard("seed")
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.shard(k) == shard {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], "a", 1)
	c.Put(keys[1], "b", 1)
	c.Get(keys[0])         // refresh: keys[1] is now coldest
	c.Put(keys[2], "c", 1) // evicts keys[1]
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Error("coldest entry survived eviction")
	}
}

// TestLRUDisabled: zero capacity swallows puts and misses gets.
func TestLRUDisabled(t *testing.T) {
	c := newLRUCache(0)
	c.Put("k", "v", 1)
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache served a hit")
	}
	if c.Len() != 0 {
		t.Error("disabled cache holds entries")
	}
}

// TestLRUConcurrent hammers the cache from many goroutines under -race.
func TestLRUConcurrent(t *testing.T) {
	c := newLRUCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k-%d", (g*31+i)%128)
				c.Put(k, k, len(k))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Fatalf("Len = %d, bound is 64", n)
	}
}

// TestSingleflightShares: followers arriving while the leader runs share
// its result; exactly one execution happens.
func TestSingleflightShares(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	var mu sync.Mutex
	evalCount := 0

	// Leader: enters the flight and blocks on the gate.
	leaderDone := make(chan any, 1)
	go func() {
		val, _, _ := g.Do("key", func() (any, error) {
			mu.Lock()
			evalCount++
			mu.Unlock()
			<-gate
			return "out", nil
		})
		leaderDone <- val
	}()
	waitForFlight(t, g, "key")

	// Followers: the key is in flight, so they must coalesce.
	const followers = 7
	var wg sync.WaitGroup
	sharedCount := 0
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, shared, err := g.Do("key", func() (any, error) {
				t.Error("follower executed the function")
				return nil, nil
			})
			if err != nil || val != "out" {
				t.Errorf("follower got %v, %v", val, err)
			}
			mu.Lock()
			if shared {
				sharedCount++
			}
			mu.Unlock()
		}()
	}
	// Give every follower time to reach the flight, then release the leader.
	// (A straggler past this window would re-execute; the t.Error inside its
	// fn catches that explicitly rather than deadlocking.)
	time.Sleep(100 * time.Millisecond)
	close(gate)
	if v := <-leaderDone; v != "out" {
		t.Fatalf("leader got %v", v)
	}
	wg.Wait()

	if evalCount != 1 {
		t.Fatalf("evaluated %d times for one key, want 1", evalCount)
	}
	if sharedCount != followers {
		t.Fatalf("%d of %d followers reported shared", sharedCount, followers)
	}
}

// waitForFlight polls until key has an in-flight call.
func waitForFlight(t *testing.T, g *flightGroup, key string) {
	t.Helper()
	for i := 0; ; i++ {
		g.mu.Lock()
		_, running := g.calls[key]
		g.mu.Unlock()
		if running {
			return
		}
		if i > 5000 {
			t.Fatal("leader never entered the flight")
		}
		time.Sleep(time.Millisecond)
	}
}
