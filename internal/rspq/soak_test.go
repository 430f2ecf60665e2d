package rspq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEngineOverlaySoak is the randomized interleaved mutate/query soak
// of the view refactor, designed to run under -race: a mutator applies
// edge deltas to the engine's graph and then rebuilds a mirror of it
// from scratch (a fresh graph fed the live edges, frozen cold — the
// oracle never sees the delta machinery), a compactor occasionally
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
	mirror := rebuiltOracle(g)          // replaced per generation, under mu
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
				if !g.RemoveEdge(from, label, to) {
					g.AddEdge(from, label, to)
				}
			}
			// Rebuild and warm the oracle inside the lock so concurrent
			// readers never race its lazy freeze.
			mirror = rebuiltOracle(g)
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
