// Package cache provides a generic sharded LRU with cost-based
// eviction, built for the query engine's cross-query caches but usable
// by any layer.
//
// A Cache[K, V] hashes each key to one of a power-of-two number of
// shards; every shard owns its own mutex, hash map and recency list, so
// concurrent readers and writers on different keys rarely contend. Each
// entry carries a caller-supplied cost in bytes; when a shard exceeds
// its slice of the configured byte budget it evicts from the cold end
// of its recency list until it fits again. Hit, miss, put and eviction
// counters are maintained per shard and summed by Stats.
//
// Values are returned by reference: a cached value may be handed to
// many goroutines at once, so callers must treat it as immutable.
package cache

import (
	"hash/maphash"
	"sync"
)

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the total byte budget across all shards, compared
	// against the caller-supplied per-entry costs. Zero or negative
	// means unlimited (no eviction).
	MaxBytes int64
	// Shards is the shard count, rounded up to a power of two;
	// <= 0 selects the default of 16.
	Shards int
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// entry is one cached value on its shard's circular recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// shard is an independently locked LRU segment.
type shard[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]*entry[K, V]
	root  entry[K, V] // sentinel: root.next is hottest, root.prev coldest
	bytes int64

	hits, misses, puts, evictions int64
}

// Cache is a sharded LRU from K to V. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	seed   maphash.Seed
	mask   uint64
	budget int64 // per-shard byte budget, 0 = unlimited
	shards []shard[K, V]
}

// New returns an empty cache sized by cfg.
func New[K comparable, V any](cfg Config) *Cache[K, V] {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	ns := 1
	for ns < n {
		ns <<= 1
	}
	c := &Cache[K, V]{
		seed:   maphash.MakeSeed(),
		mask:   uint64(ns - 1),
		shards: make([]shard[K, V], ns),
	}
	if cfg.MaxBytes > 0 {
		c.budget = cfg.MaxBytes / int64(ns)
		if c.budget < 1 {
			c.budget = 1
		}
	}
	for i := range c.shards {
		c.shards[i].empty()
	}
	return c
}

func (c *Cache[K, V]) shardFor(key K) *shard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, key)&c.mask]
}

// Get returns the cached value for key, marking it most-recently-used.
func (c *Cache[K, V]) Get(key K) (V, bool) { return c.get(key, true) }

// Probe is Get for a second lookup on behalf of one ask whose first
// lookup already counted its miss: a hit is counted and refreshes the
// entry as Get's does, a miss is not counted.
func (c *Cache[K, V]) Probe(key K) (V, bool) { return c.get(key, false) }

func (c *Cache[K, V]) get(key K, countMiss bool) (V, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if !ok {
		if countMiss {
			sh.misses++
		}
		var zero V
		return zero, false
	}
	sh.hits++
	sh.moveToFront(e)
	return e.val, true
}

// Retainable reports whether an entry of the given cost can be held at
// all (it fits one shard's slice of the byte budget). Callers building
// expensive cache values can pre-check it and skip the build when the
// value would be rejected on arrival anyway.
func (c *Cache[K, V]) Retainable(cost int64) bool {
	return c.budget <= 0 || cost <= c.budget
}

// Put inserts or replaces the value for key with the given cost in
// bytes, marking it most-recently-used, then evicts cold entries until
// the shard fits its budget again. An entry whose cost alone exceeds
// the per-shard budget is rejected outright — counted as an eviction —
// rather than displacing the shard's useful entries (size budgets
// should be chosen well above the largest single value; see
// Retainable). Negative costs count as zero.
func (c *Cache[K, V]) Put(key K, val V, cost int64) {
	if cost < 0 {
		cost = 0
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.puts++
	if !c.Retainable(cost) {
		// Drop any now-stale predecessor under the same key, then
		// reject: evicting the whole shard for an entry that cannot
		// fit even alone would only thrash it.
		if e, ok := sh.m[key]; ok {
			sh.evict(e)
		}
		sh.evictions++
		return
	}
	if e, ok := sh.m[key]; ok {
		sh.bytes += cost - e.cost
		e.val, e.cost = val, cost
		sh.moveToFront(e)
	} else {
		e := &entry[K, V]{key: key, val: val, cost: cost}
		sh.m[key] = e
		sh.pushFront(e)
		sh.bytes += cost
	}
	if c.budget > 0 {
		for sh.bytes > c.budget && sh.root.prev != &sh.root {
			sh.evict(sh.root.prev)
		}
	}
}

// Delete removes key; it reports whether an entry was present.
func (c *Cache[K, V]) Delete(key K) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if !ok {
		return false
	}
	sh.unlink(e)
	sh.bytes -= e.cost
	delete(sh.m, key)
	return true
}

// Clear drops every entry, shard by shard, each under its lock. The
// hit, miss, put and eviction counters keep their values: a cleared
// entry is not counted as an eviction. A Put racing Clear may land
// before or after it.
func (c *Cache[K, V]) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.empty()
		sh.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Stats sums the per-shard counters.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Puts += sh.puts
		st.Evictions += sh.evictions
		st.Entries += len(sh.m)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// empty gives the shard a fresh map and recency list, so the old
// entries' memory goes back to the collector.
func (sh *shard[K, V]) empty() {
	sh.m = make(map[K]*entry[K, V])
	sh.root.prev, sh.root.next = &sh.root, &sh.root
	sh.bytes = 0
}

func (sh *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &sh.root
	e.next = sh.root.next
	e.prev.next = e
	e.next.prev = e
}

func (sh *shard[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (sh *shard[K, V]) moveToFront(e *entry[K, V]) {
	if sh.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	sh.pushFront(e)
}

func (sh *shard[K, V]) evict(e *entry[K, V]) {
	sh.unlink(e)
	sh.bytes -= e.cost
	delete(sh.m, e.key)
	sh.evictions++
}
