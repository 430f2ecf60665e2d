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
	mirror := l.rebuilt()               // replaced per generation, under mu
	s, err := NewSolver("a*(bb+|())c*") // summary tier: the deepest kernel stack
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s, g, EngineConfig{})
	s.Warm(mirror)

	var mu sync.RWMutex
	stop := make(chan struct{})
	var background sync.WaitGroup

	background.Add(1)
	go func() { // mutator: flip edges, then rebuild the oracle mirror
		defer background.Done()
		mrng := rand.New(rand.NewSource(67))
		for {
			select {
			case <-stop:
				return
			default:
			}
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
	}()

	background.Add(1)
	go func() { // compactor: random write-locked merges mid-stream
		defer background.Done()
		crng := rand.New(rand.NewSource(71))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if crng.Intn(8) == 0 {
				mu.Lock()
				e.Compact()
				mu.Unlock()
			}
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			wrng := rand.New(rand.NewSource(int64(w + 73)))
			for i := 0; i < 150; i++ {
				x, y := wrng.Intn(n), wrng.Intn(n)
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
		}(w)
	}
	workers.Wait()
	close(stop)
	background.Wait()

	// The oracle path must really have been the full-rebuild one, and the
	// soak must have exercised both the overlay and the compactor at
	// least plausibly (the mutator runs the whole time, so the first
	// post-mutation query pins an overlay).
	if full, inc := mirror.FreezeStats(); inc != 0 || full != 1 {
		t.Fatalf("oracle freezes (full=%d, inc=%d): the mirror must rebuild from scratch", full, inc)
	}
	st := e.Stats()
	if st.OverlayReads == 0 {
		t.Fatal("soak never served a query through an overlay view")
	}
}

// TestEngineSparseTableChurn is the add/remove churn of the soak above
// pointed at a subword-closed language and at a baseline-tier language
// on a layered DAG, where the walk-first step answers every source: both
// read their Engine answers off cached goal tables, on graphs where some
// backward sweeps reach more than half the product and others stay well
// below, so both table forms are built (exportGoalTable picks by bytes),
// every epoch flips edges in three pinned steps — read through an
// overlay view that extends the previous epochs', every fourth epoch
// through the base a Compact just merged — and then asks, per target,
// once cold from a source the rebuilt graph proves unreachable — the
// sweep runs to the end and the table is built, sparse whenever that
// retains fewer bytes — and once more from a random other source, which
// must hit that table. Both answers must pass VerifyWitness and agree,
// in existence and in length (both tiers return shortest paths), with a
// freshly compiled Solver on a graph rebuilt from scratch.
func TestEngineSparseTableChurn(t *testing.T) {
	cases := []struct {
		name, pattern string
		tier          Algorithm
		gen           func() *graph.Graph
	}{
		{"subword", "a*c*", AlgoSubword, func() *graph.Graph { return graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 6, 29) }},
		{"dag", "(a|b)*a(a|b)*", AlgoBaseline, func() *graph.Graph { return graph.LayeredDAG(40, 10, 2, []byte{'a', 'b'}, 29) }},
	}
	for _, c := range cases {
		s, err := NewSolver(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		g := c.gen()
		n := g.NumVertices()
		l := newLedger(g)
		e := NewEngine(s, g, EngineConfig{CompactDelta: -1})
		rng := rand.New(rand.NewSource(31))
		var sparse, dense, hits int
		for epoch := 0; epoch < 10; epoch++ {
			mutateInSteps(l, rng, 3, 2, c.name == "dag")
			if epoch%4 == 3 {
				e.Compact()
			}
			oracle := l.rebuilt()
			ref, err := NewSolver(c.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if algo := ref.ChooseAlgorithm(oracle); algo != c.tier {
				t.Fatalf("%s: tier %v, want %v", c.name, algo, c.tier)
			}
			seen := map[int]bool{}
			for i := 0; i < 12; i++ {
				y := rng.Intn(n)
				if i%2 == 0 {
					y = rng.Intn(60) // few ancestors on the layered DAG
				}
				if seen[y] {
					continue
				}
				seen[y] = true
				u := rng.Intn(n)
				for tries := 0; tries < n && ExistsWalk(oracle, s.Min, u, y); tries++ {
					u = (u + 1) % n
				}
				if ExistsWalk(oracle, s.Min, u, y) {
					continue // every vertex reaches y: no sweep from it runs to the end
				}
				for pass, x := range []int{u, (u + 1 + rng.Intn(n-1)) % n} {
					got, tr := e.SolveTraced(x, y)
					want := ref.Solve(oracle, x, y)
					if got.Found != want.Found || (got.Found && got.Path.Len() != want.Path.Len()) {
						t.Fatalf("%s epoch %d (%d,%d): engine %v, fresh solver on the rebuilt graph %v",
							c.name, epoch, x, y, got.Path, want.Path)
					}
					if !VerifyWitness(got, g, s.Min, x, y) {
						t.Fatalf("%s epoch %d (%d,%d): invalid witness %v", c.name, epoch, x, y, got.Path)
					}
					if tr.Tier != c.tier.String() || tr.ResultCacheHit || tr.TableCacheHit != (pass == 1) || tr.StoppedAt != 0 {
						t.Fatalf("%s epoch %d (%d,%d) pass %d: trace %+v", c.name, epoch, x, y, pass, tr)
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
			}
		}
		if sparse == 0 || dense == 0 || hits == 0 {
			t.Fatalf("%s: %d sparse and %d dense tables built, %d table hits; the churn must see all three",
				c.name, sparse, dense, hits)
		}
		if st := e.Stats(); st.OverlayReads == 0 || st.Compactions == 0 {
			t.Fatalf("%s: overlay reads %d, compactions %d; the churn must see both", c.name, st.OverlayReads, st.Compactions)
		}
	}
}
