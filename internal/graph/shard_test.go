package graph

import (
	"runtime"
	"testing"
)

// TestSetShards pins the configuration semantics: unsharded by default,
// the shard count is a number stamped on every view pinned afterwards,
// reconfiguring drops the cached view (a view already handed out keeps
// the K it was pinned under), and the count is clamped to
// [0, MaxShards].
func TestSetShards(t *testing.T) {
	g := New(10)
	for v := 0; v < 9; v++ {
		g.AddEdge(v, 'a', v+1)
	}
	if g.ShardCount() != 0 || g.PinView().Shards() != 0 {
		t.Fatal("unconfigured graph must be unsharded")
	}
	g.SetShards(4)
	vw4 := g.PinView()
	if g.ShardCount() != 4 || vw4.Shards() != 4 {
		t.Fatalf("ShardCount = %d, view K = %d, want 4", g.ShardCount(), vw4.Shards())
	}
	g.SetShards(4)
	if g.PinView() != vw4 {
		t.Fatal("re-setting the same count must keep the cached view")
	}
	c := g.Freeze()
	g.SetShards(2) // on a frozen graph: no refreeze, just a new view
	if vw2 := g.PinView(); vw2 == vw4 || vw2.Shards() != 2 || vw2.Base() != c {
		t.Fatalf("reconfigured view: K = %d, same view %v, same base %v", vw2.Shards(), vw2 == vw4, vw2.Base() == c)
	}
	if vw4.Shards() != 4 {
		t.Fatal("a pinned view must keep its K")
	}
	for _, tc := range []struct{ k, want int }{{0, 0}, {-3, 0}, {MaxShards, MaxShards}, {1 << 20, MaxShards}} {
		g.SetShards(tc.k)
		if g.ShardCount() != tc.want || g.PinView().Shards() != tc.want {
			t.Fatalf("SetShards(%d): ShardCount = %d, view K = %d, want %d", tc.k, g.ShardCount(), g.PinView().Shards(), tc.want)
		}
	}
	if full, inc := g.FreezeStats(); full != 1 || inc != 0 {
		t.Fatalf("SetShards must never rebuild the snapshot: (full=%d, inc=%d)", full, inc)
	}
}

// freezeBytes returns the bytes allocated by one g.Freeze().
func freezeBytes(g *Graph) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Freeze()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFreezeShardsAllocGuard pins that sharding costs no storage: a
// full Freeze of a 50k-edge graph, and a delta Freeze after a 1 %
// mutation batch, allocate the same bytes (±1 %) with SetShards(8) as
// unsharded. A partitioned copy of the adjacency would roughly double
// both.
func TestFreezeShardsAllocGuard(t *testing.T) {
	var full, delta [2]uint64
	for i, k := range []int{0, 8} {
		g, muts := StreamingWorkload(50_000, 0.01, 5)
		g.SetShards(k)
		full[i] = freezeBytes(g)
		FlipEdges(g, muts)
		delta[i] = freezeBytes(g)
		if f, inc := g.FreezeStats(); f != 1 || inc != 1 {
			t.Fatalf("K=%d: want one full and one incremental freeze, got (%d, %d)", k, f, inc)
		}
	}
	for _, m := range []struct {
		name string
		b    [2]uint64
	}{{"full", full}, {"delta", delta}} {
		if lo, hi := m.b[0]-m.b[0]/100, m.b[0]+m.b[0]/100; m.b[1] < lo || m.b[1] > hi {
			t.Errorf("%s Freeze: %d bytes with 8 shards vs %d unsharded (want ±1%%)", m.name, m.b[1], m.b[0])
		}
	}
}
