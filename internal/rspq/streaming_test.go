package rspq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEngineObservesRemoveEdge pins epoch invalidation for the new
// mutation kind: a removal must make cached tables and results for the
// old generation unreachable, exactly like an insertion.
func TestEngineObservesRemoveEdge(t *testing.T) {
	g := edgeGraph(4, "0a1 1a2 2c3")
	s := mustSolver(t, "a*c*")
	e := NewEngine(s, g, EngineConfig{})
	if !e.Solve(0, 3).Found {
		t.Fatal("path 0→3 must exist before the removal")
	}
	if !g.RemoveEdge(1, 'a', 2) {
		t.Fatal("edge (1,a,2) must be removable")
	}
	if e.Solve(0, 3).Found {
		t.Fatal("engine served a stale cached verdict after RemoveEdge")
	}
	g.AddEdge(1, 'a', 2)
	if res := e.Solve(0, 3); !res.Found || !VerifyWitness(res, g, s.Min, 0, 3) {
		t.Fatal("re-added edge must restore the path with a valid witness")
	}
}

// TestEngineMutateWhileQueryRace is the streaming serving shape under
// the race detector: one mutator applies add/remove deltas under a
// write lock while query workers read through the engine under read
// locks — the locking discipline of cmd/rspqd. The -race run checks
// that the delta overlay, the pinned snapshot views and the engine
// counters introduce no unsynchronized state; the assertions check
// engine answers always match a cold solve of the same generation.
func TestEngineMutateWhileQueryRace(t *testing.T) {
	const n = 96
	g := graph.New(n)
	rng := rand.New(rand.NewSource(17))
	labels := []byte{'a', 'c'}
	for i := 0; i < 4*n; i++ {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	s := mustSolver(t, "a*c*")
	e := NewEngine(s, g, EngineConfig{})

	var mu sync.RWMutex
	mrng := rand.New(rand.NewSource(29))
	mutate := func() { // flip random edges in small delta batches
		mu.Lock()
		for k := 0; k < 3; k++ {
			from, label, to := mrng.Intn(n), labels[mrng.Intn(len(labels))], mrng.Intn(n)
			if !g.RemoveEdge(from, label, to) {
				g.AddEdge(from, label, to)
			}
		}
		mu.Unlock()
	}
	whileLooping(func() {
		concurrently(4, func(w int) {
			wrng := rand.New(rand.NewSource(int64(w + 5)))
			for i := 0; i < 150; i++ {
				x, y := wrng.Intn(n), wrng.Intn(n)
				// A read lock suffices for queries: the first query after
				// a delta refreezes under the engine's own mutex.
				mu.RLock()
				got := e.Solve(x, y)
				ok := VerifyWitness(got, g, s.Min, x, y)
				mu.RUnlock()
				if !ok {
					t.Errorf("worker %d: invalid engine answer for (%d,%d)", w, x, y)
					return
				}
			}
		})
	}, mutate)

	// Steady-state queries over small deltas must be served by pinned
	// overlay views, never by stop-the-world refreezes. Drain whatever
	// delta the mutator left, then a single-edge delta is guaranteed to
	// be in the overlay regime.
	g.RemoveEdge(0, 'a', n-1) // ensure absent so the AddEdge below is a real delta
	e.Compact()               // drain the mutator's leftover delta
	c0 := e.Stats().Compactions
	g.AddEdge(0, 'a', n-1)
	res := e.Solve(0, n-1)
	if !res.Found || !VerifyWitness(res, g, s.Min, 0, n-1) {
		t.Fatal("overlay query must see the freshly added edge")
	}
	st := e.Stats()
	if st.OverlayReads == 0 {
		t.Fatal("single-edge delta was not served through an overlay view")
	}
	if st.PendingAdds != 1 || st.PendingRemoves != 0 {
		t.Fatalf("expected pending delta (1,0), got (%d,%d)", st.PendingAdds, st.PendingRemoves)
	}

	// A compaction merges the delta away without moving the epoch, so
	// cached tables stay live and subsequent queries go pass-through.
	epoch := st.Epoch
	if !e.Compact() {
		t.Fatal("Compact reported no work with a pending delta")
	}
	before := e.Stats().PassThroughReads
	res = e.Solve(0, n-1)
	if !res.Found || !VerifyWitness(res, g, s.Min, 0, n-1) {
		t.Fatal("query after Compact must still see the added edge")
	}
	st = e.Stats()
	if st.Epoch != epoch {
		t.Fatalf("Compact moved the epoch: %d -> %d", epoch, st.Epoch)
	}
	if st.PendingAdds+st.PendingRemoves != 0 {
		t.Fatalf("delta must be empty after Compact, got (%d,%d)", st.PendingAdds, st.PendingRemoves)
	}
	if st.Compactions != c0+1 {
		t.Fatalf("expected %d compactions, got %d", c0+1, st.Compactions)
	}
	if st.PassThroughReads != before+1 {
		t.Fatalf("query after Compact must be pass-through (%d -> %d)", before, st.PassThroughReads)
	}
}
