package rspq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEngineOverlaySoak is the randomized interleaved mutate/query soak
// of the view refactor, designed to run under -race: a mutator applies
// edge deltas to the engine's graph through an edgeLedger and then
// rebuilds a mirror of it from scratch (a fresh graph fed the ledger's
// edges, frozen cold — the oracle never sees the delta machinery), a compactor occasionally
// merges the engine's delta away mid-stream, and query workers require
// every engine answer to match the oracle's at the same generation. The RWMutex
// discipline is cmd/rspqd's: mutations and compactions under the write
// lock, queries under read locks.
func TestEngineOverlaySoak(t *testing.T) {
	const n = 80
	labels := []byte{'a', 'b', 'c'}
	g := graph.New(n)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 4*n; i++ {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	l := newLedger(g)
	mirror := l.rebuilt()              // replaced per generation, under mu
	s := mustSolver(t, "a*(bb+|())c*") // summary tier: the deepest kernel stack
	e := NewEngine(s, g, EngineConfig{})
	s.Warm(mirror)

	var mu sync.RWMutex
	mrng, crng := rand.New(rand.NewSource(67)), rand.New(rand.NewSource(71))
	mutate := func() { // flip edges, then rebuild the oracle mirror
		mu.Lock()
		for k := 0; k < 3; k++ {
			from, label, to := mrng.Intn(n), labels[mrng.Intn(len(labels))], mrng.Intn(n)
			l.flip(from, label, to)
		}
		// Rebuild and warm the oracle inside the lock so concurrent
		// readers never race its lazy freeze.
		mirror = l.rebuilt()
		s.Warm(mirror)
		mu.Unlock()
	}
	compact := func() { // random write-locked merges mid-stream
		if crng.Intn(8) == 0 {
			mu.Lock()
			e.Compact()
			mu.Unlock()
		}
	}

	whileLooping(func() {
		concurrently(4, func(w int) {
			wrng := rand.New(rand.NewSource(int64(w + 73)))
			for i := 0; i < 150; i++ {
				x, y := wrng.Intn(n), wrng.Intn(n)
				if w == 0 && i == 0 {
					// A write and a read under one write lock, after a
					// compaction emptied the delta: the write is the whole
					// delta, so the read pins an overlay whatever the
					// compactor and the mutator do around it.
					mu.Lock()
					e.Compact()
					l.flip(x, 'a', y)
					mirror = l.rebuilt()
					s.Warm(mirror)
					e.Solve(x, y)
					mu.Unlock()
				}
				mu.RLock()
				got := e.Solve(x, y)
				want := s.Solve(mirror, x, y)
				okWitness := VerifyWitness(got, g, s.Min, x, y)
				mu.RUnlock()
				if got.Found != want.Found {
					t.Errorf("worker %d: engine(%d,%d)=%v, full-rebuild oracle says %v",
						w, x, y, got.Found, want.Found)
					return
				}
				if !okWitness {
					t.Errorf("worker %d: invalid engine witness for (%d,%d)", w, x, y)
					return
				}
			}
		})
	}, mutate, compact)

	// The oracle path must really have been the full-rebuild one, and the
	// soak must have read through an overlay (worker 0's first step
	// guarantees one).
	if full, inc := mirror.FreezeStats(); inc != 0 || full != 1 {
		t.Fatalf("oracle freezes (full=%d, inc=%d): the mirror must rebuild from scratch", full, inc)
	}
	st := e.Stats()
	if st.OverlayReads == 0 {
		t.Fatal("soak never served a query through an overlay view")
	}
}

// TestEngineSparseTableChurn is the add/remove churn of the soak above
// pointed at the subword row's language and at the DAG row's, where the
// walk-first step answers every source: both read their Engine answers
// off cached goal tables, on graphs where some backward sweeps reach
// more than half the product and others stay well below, so both table
// forms are built (exportGoalTable picks by bytes). Every epoch moves the
// graph to an extended overlay (the extended view), every fourth reads
// through the base a Compact just merged, and then asks, per target,
// once cold from a source the textbook sweep proves unreachable — the
// sweep runs to the end and the table is built, sparse whenever that
// retains fewer bytes — and once more from a random other source, which
// must hit that table. Both answers must be Solver.Solve's, found
// exactly when the textbook sweep reaches the source and as long as its
// distance (both tiers return shortest paths).
func TestEngineSparseTableChurn(t *testing.T) {
	for _, tc := range []struct {
		row string
		g   *graph.Graph
	}{
		{"subword", graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 6, 29)},
		{"dag", graph.LayeredDAG(40, 10, 2, []byte{'a', 'b'}, 29)},
	} {
		row := tier(tc.row)
		c := newCase(t, row, row.pattern, tc.g, 29)
		m, start, n := c.s.Min.NumStates, c.s.Min.Start, c.g.NumVertices()
		e := NewEngine(c.s, c.g, EngineConfig{CompactDelta: -1})
		rng := rand.New(rand.NewSource(31))
		var sparse, dense, hits int
		for epoch := 0; epoch < 10; epoch++ {
			c.move(t, extended)
			if epoch%4 == 3 {
				e.Compact()
			}
			seen := map[int]bool{}
			for i := 0; i < 12; i++ {
				y := rng.Intn(n)
				if i%2 == 0 {
					y = rng.Intn(60) // few ancestors on the layered DAG
				}
				co, u := textbookSweep(c.l, dfaOracle(c.s.Min), y), rng.Intn(n)
				for tries := 0; tries < n && co[u*m+start] >= 0; tries++ {
					u = (u + 1) % n
				}
				if seen[y] || co[u*m+start] >= 0 {
					continue // every vertex reaches y: no sweep from it runs to the end
				}
				seen[y] = true
				pairs := []Pair{{X: u, Y: y}, {X: (u + 1 + rng.Intn(n-1)) % n, Y: y}}
				got := make([]Result, len(pairs))
				for pass, pq := range pairs {
					var tr *QueryTrace
					got[pass], tr = e.SolveTraced(pq.X, pq.Y)
					if tr.Tier != row.algo.String() || tr.ResultCacheHit || tr.TableCacheHit != (pass == 1) || tr.StoppedAt != 0 {
						t.Fatalf("%s epoch %d (%d,%d) pass %d: trace %+v", c, epoch, pq.X, pq.Y, pass, tr)
					}
					switch {
					case pass == 1:
						hits++
					case tr.TableBytes == sparseGoalTableCost(tr.TableStates):
						sparse++
					default:
						dense++
					}
				}
				// On both tiers a simple path exists exactly when a walk does.
				walk := []int32{co[pairs[0].X*m+start], co[pairs[1].X*m+start]}
				r := &reference{pairs: pairs, found: []bool{walk[0] >= 0, walk[1] >= 0}, walk: walk,
					solve: each(pairs, func(x, y int) Result { return c.s.Solve(c.g, x, y) })}
				c.check(t, r, "Engine", got, askSame)
				c.check(t, r, "Engine", got, askWalk) // as short as the shortest walk
			}
		}
		if sparse == 0 || dense == 0 || hits == 0 {
			t.Fatalf("%s: %d sparse and %d dense tables built, %d table hits; the churn must see all three", c, sparse, dense, hits)
		}
		if st := e.Stats(); st.OverlayReads == 0 || st.Compactions == 0 {
			t.Fatalf("%s: overlay reads %d, compactions %d; the churn must see both", c, st.OverlayReads, st.Compactions)
		}
	}
}
