package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestBasicGetPut(t *testing.T) {
	c := New[string, int](Config{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1, 10)
	c.Put("b", 2, 20)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v; want 2, true", v, ok)
	}
	c.Put("a", 3, 12) // replace
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("after replace Get(a) = %d; want 3", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d; want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Puts != 3 {
		t.Fatalf("stats = %+v; want 3 hits, 1 miss, 3 puts", st)
	}
	if st.Bytes != 12+20 {
		t.Fatalf("bytes = %d; want 32", st.Bytes)
	}
	if !c.Delete("a") || c.Delete("a") {
		t.Fatal("Delete should report presence exactly once")
	}
	if c.Len() != 1 || c.Stats().Bytes != 20 {
		t.Fatalf("after delete: len=%d bytes=%d; want 1, 20", c.Len(), c.Stats().Bytes)
	}
}

// TestProbeCountsNoMiss pins Probe: a hit counts and refreshes recency
// as Get's does, a miss is not counted.
func TestProbeCountsNoMiss(t *testing.T) {
	c := New[string, int](Config{MaxBytes: 2, Shards: 1})
	if _, ok := c.Probe("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Probe("a"); !ok || v != 1 {
		t.Fatalf("Probe(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("c", 3, 1) // evicts b, the colder once a was probed
	if _, ok := c.Get("b"); ok {
		t.Fatal("the probe did not refresh a")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v; want the probe's hit and Get's miss only", st)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	// One shard so the recency order is global and deterministic.
	c := New[int, int](Config{MaxBytes: 100, Shards: 1})
	for i := 0; i < 10; i++ {
		c.Put(i, i, 10) // exactly at budget with 10 entries
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d; want 10 (at budget)", c.Len())
	}
	// Touch 0 so it is hot, then overflow by one entry: 1 must go.
	c.Get(0)
	c.Put(10, 10, 10)
	if _, ok := c.Get(1); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	if _, ok := c.Get(0); !ok {
		t.Fatal("recently used entry 0 should have survived")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d; want 1", ev)
	}
	if b := c.Stats().Bytes; b > 100 {
		t.Fatalf("bytes = %d; want <= 100", b)
	}
}

func TestEvictionByCost(t *testing.T) {
	c := New[int, string](Config{MaxBytes: 64, Shards: 1})
	c.Put(1, "small", 8)
	c.Put(2, "big", 56)
	if c.Len() != 2 {
		t.Fatalf("len = %d; want 2 (exactly at budget)", c.Len())
	}
	// A large insert evicts both older entries.
	c.Put(3, "huge", 60)
	if _, ok := c.Get(3); !ok {
		t.Fatal("newest entry must survive its own insertion")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d; want 1", c.Len())
	}
	// An entry over the whole budget is rejected on arrival and must
	// not displace the entries already in the shard.
	if c.Retainable(1000) {
		t.Fatal("cost 1000 must not be retainable under a 64-byte budget")
	}
	c.Put(4, "oversized", 1000)
	if _, ok := c.Get(4); ok {
		t.Fatal("entry costing more than the budget must not be retained")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("rejecting an oversize entry must not evict existing entries")
	}
	// Replacing a retained entry with an oversize value drops the stale
	// predecessor.
	c.Put(3, "resized", 1000)
	if _, ok := c.Get(3); ok {
		t.Fatal("oversize replacement must drop the stale predecessor")
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := New[int, int](Config{MaxBytes: 100, Shards: 1})
	c.Put(1, 1, 90)
	c.Put(1, 2, 10) // shrink in place
	if b := c.Stats().Bytes; b != 10 {
		t.Fatalf("bytes = %d; want 10", b)
	}
	c.Put(2, 2, 80)
	if c.Len() != 2 {
		t.Fatalf("len = %d; want 2", c.Len())
	}
	c.Put(1, 3, 95) // grow in place, forcing eviction of 2
	if _, ok := c.Get(2); ok {
		t.Fatal("growing entry 1 should have evicted entry 2")
	}
}

func TestUnlimitedNeverEvicts(t *testing.T) {
	c := New[int, int](Config{MaxBytes: 0, Shards: 2})
	for i := 0; i < 1000; i++ {
		c.Put(i, i, 1<<20)
	}
	if c.Len() != 1000 {
		t.Fatalf("len = %d; want 1000", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions = %d; want 0", ev)
	}
}

// TestRandomizedAgainstModel drives one shard with a random op sequence
// and mirrors it in a plain map + slice model.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := New[int, int](Config{MaxBytes: 200, Shards: 1})
	type mentry struct {
		key, val int
		cost     int64
	}
	var model []mentry // index 0 = coldest
	find := func(k int) int {
		for i, e := range model {
			if e.key == k {
				return i
			}
		}
		return -1
	}
	var bytes int64
	for step := 0; step < 5000; step++ {
		k := rng.Intn(20)
		if rng.Intn(2) == 0 {
			v, ok := c.Get(k)
			i := find(k)
			if ok != (i >= 0) {
				t.Fatalf("step %d: Get(%d) presence = %v; model %v", step, k, ok, i >= 0)
			}
			if ok {
				if v != model[i].val {
					t.Fatalf("step %d: Get(%d) = %d; model %d", step, k, v, model[i].val)
				}
				e := model[i]
				model = append(append(model[:i:i], model[i+1:]...), e)
			}
		} else {
			cost := int64(rng.Intn(60))
			val := rng.Int()
			c.Put(k, val, cost)
			if i := find(k); i >= 0 {
				bytes -= model[i].cost
				model = append(model[:i:i], model[i+1:]...)
			}
			model = append(model, mentry{key: k, val: val, cost: cost})
			bytes += cost
			for bytes > 200 && len(model) > 0 {
				bytes -= model[0].cost
				model = model[1:]
			}
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: len = %d; model %d", step, c.Len(), len(model))
		}
		if got := c.Stats().Bytes; got != bytes {
			t.Fatalf("step %d: bytes = %d; model %d", step, got, bytes)
		}
	}
}

// TestConcurrent hammers one cache from many goroutines; run under
// -race it checks the per-shard locking, and afterwards every surviving
// entry must still map to its own key's value.
func TestConcurrent(t *testing.T) {
	c := New[string, int](Config{MaxBytes: 1 << 14, Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				k := rng.Intn(100)
				key := fmt.Sprintf("k%d", k)
				switch rng.Intn(4) {
				case 0:
					c.Put(key, k, int64(rng.Intn(256)))
				case 1:
					c.Delete(key)
				default:
					if v, ok := c.Get(key); ok && v != k {
						t.Errorf("Get(%s) = %d; want %d", key, v, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Puts == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if st.Bytes > 1<<14 {
		t.Fatalf("bytes %d exceed budget", st.Bytes)
	}
}

// TestClear pins Clear: every entry and byte goes, the counters stay,
// and the cache works as before afterwards.
func TestClear(t *testing.T) {
	c := New[int, int](Config{MaxBytes: 1 << 10, Shards: 4})
	for k := 0; k < 50; k++ {
		c.Put(k, k, 8)
	}
	c.Get(3)
	c.Get(-1)
	before := c.Stats()
	c.Clear()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after Clear: %d entries, %d bytes; want none", st.Entries, st.Bytes)
	}
	if st.Hits != before.Hits || st.Misses != before.Misses || st.Puts != before.Puts || st.Evictions != before.Evictions {
		t.Fatalf("Clear moved the counters: %+v, was %+v", st, before)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("a cleared key hit")
	}
	c.Put(3, 30, 8)
	if v, ok := c.Get(3); !ok || v != 30 || c.Len() != 1 || c.Stats().Bytes != 8 {
		t.Fatalf("after Clear and Put: Get(3) = %d, %v, len %d, bytes %d", v, ok, c.Len(), c.Stats().Bytes)
	}
}

// TestClearConcurrent races Get and Put against Clear; run under -race
// it checks that Clear takes each shard's lock, and afterwards every
// shard's map, recency list and byte count must agree.
func TestClearConcurrent(t *testing.T) {
	c := New[int, int](Config{MaxBytes: 1 << 12, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				k := rng.Intn(200)
				if rng.Intn(2) == 0 {
					c.Put(k, k, int64(rng.Intn(64)))
				} else if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d; want %d", k, v, k)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Clear()
		}
	}()
	wg.Wait()
	for i := range c.shards {
		sh := &c.shards[i]
		n, bytes := 0, int64(0)
		for e := sh.root.next; e != &sh.root; e = e.next {
			if sh.m[e.key] != e {
				t.Fatalf("shard %d: listed key %d is not mapped to its entry", i, e.key)
			}
			n, bytes = n+1, bytes+e.cost
		}
		if n != len(sh.m) || bytes != sh.bytes {
			t.Fatalf("shard %d: list holds %d entries, %d bytes; map %d, count %d", i, n, bytes, len(sh.m), sh.bytes)
		}
	}
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Puts == 0 {
		t.Fatalf("after the last Clear: %+v", st)
	}
}
