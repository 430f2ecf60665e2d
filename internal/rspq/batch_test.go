package rspq

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestBatchMatchesSolve holds the BatchSolver — default pool and one
// worker, witness and existence-only asks — to the reference, and its
// witnesses to Solver.Solve's, on four more frozen graphs of every
// answer row. The pair set groups many sources per target and repeats a
// pair.
func TestBatchMatchesSolve(t *testing.T) {
	runMatrix(t, answerRows(), []int64{2, 3, 4, 5}, [][]hView{{frozen}}, func(t *testing.T, c *hCase) {
		checkSurfaces(t, c, c.pairs(0), "BatchSolver")
	})
}

// TestBatchMatchesBaseline holds the BatchSolver and the bare tier
// functions, the exponential baseline among them, to the reference on
// every answer row after a delta and after the vertex set grew, so a bug
// shared by the per-query and the batched code would still surface.
func TestBatchMatchesBaseline(t *testing.T) {
	runMatrix(t, answerRows(), []int64{11}, [][]hView{{overlay(6), grown}}, func(t *testing.T, c *hCase) {
		checkSurfaces(t, c, c.pairs(0), "SolveWith", "tiers", "BatchSolver")
	})
}

// TestBatchWorkerPool exercises pool sizing edge cases: 1 worker, more
// workers than groups, all pairs sharing one target, empty batch.
func TestBatchWorkerPool(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")
	g := graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, 8)
	bs := NewBatchSolver(s, g)
	rng := rand.New(rand.NewSource(2))
	var pairs []Pair
	for i := 0; i < 30; i++ {
		pairs = append(pairs, Pair{X: rng.Intn(40), Y: rng.Intn(5)})
	}
	want := bs.SetWorkers(1).Solve(pairs)
	for _, workers := range []int{2, 4, 64, 0 /* reset to GOMAXPROCS */} {
		got := bs.SetWorkers(workers).Solve(pairs)
		for i := range pairs {
			if got[i].Found != want[i].Found {
				t.Fatalf("workers=%d pair %v: %v != %v", workers, pairs[i], got[i].Found, want[i].Found)
			}
		}
	}
	oneTarget := []Pair{{0, 7}, {1, 7}, {2, 7}, {3, 7}}
	if res := bs.Solve(oneTarget); len(res) != 4 {
		t.Fatalf("one-target batch: %d results", len(res))
	}
	if res := bs.Solve(nil); len(res) != 0 {
		t.Fatalf("empty batch: %d results", len(res))
	}
}

// TestBatchSetWorkersConcurrent resizes the pool while batches are in
// flight (run with -race): SetWorkers is documented as safe to race
// with Solve.
func TestBatchSetWorkersConcurrent(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")
	g := graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, 8)
	bs := NewBatchSolver(s, g)
	pairs := []Pair{{0, 1}, {2, 1}, {3, 4}, {5, 4}}
	want := bs.Solve(pairs)
	concurrently(4, func(n int) {
		for i := 0; i < 30; i++ {
			got := bs.SetWorkers(n + 1).Solve(pairs)
			for j := range pairs {
				if got[j].Found != want[j].Found {
					t.Errorf("pair %v: %v != %v", pairs[j], got[j].Found, want[j].Found)
					return
				}
			}
		}
	})
}

// TestBatchConcurrentStress hammers one BatchSolver from many
// goroutines at once (run with -race): batches must not interfere with
// each other or with interleaved per-query Solve calls.
func TestBatchConcurrentStress(t *testing.T) {
	c := newCase(t, tier("summary"), "a*(bb+|())c*", graph.RandomRegular(60, []byte{'a', 'b', 'c'}, 3, 13), 13)
	s, g, bs := c.s, c.g, NewBatchSolver(c.s, c.g)
	var all []Pair
	for y := 0; y < 6; y++ {
		for x := 0; x < 60; x++ {
			all = append(all, Pair{X: x, Y: y})
		}
	}
	r, ref := c.reference(t, all), make(map[Pair]bool)
	for i, pq := range all {
		ref[pq] = r.found[i]
	}

	concurrently(8, func(w int) {
		seed := int64(w)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			var pairs []Pair
			for i := 0; i < 25; i++ {
				pairs = append(pairs, Pair{X: rng.Intn(60), Y: rng.Intn(6)})
			}
			got := bs.Solve(pairs)
			for i, pq := range pairs {
				if got[i].Found != ref[pq] {
					t.Errorf("pair %v: batch=%v want=%v", pq, got[i].Found, ref[pq])
					return
				}
				if !VerifyWitness(got[i], g, s.Min, pq.X, pq.Y) {
					t.Errorf("pair %v: invalid witness", pq)
					return
				}
			}
			// Interleave a per-query call on the same solver.
			pq := pairs[rng.Intn(len(pairs))]
			if s.Solve(g, pq.X, pq.Y).Found != ref[pq] {
				t.Errorf("interleaved solve diverged on %v", pq)
				return
			}
		}
	})
}

// TestBatchSolveExists holds the BatchSolver's existence-only asks, on
// the default pool and on one worker, to the reference on every answer
// row after a delta of removals alone.
func TestBatchSolveExists(t *testing.T) {
	runMatrix(t, answerRows(), []int64{29}, [][]hView{{removals(8)}}, func(t *testing.T, c *hCase) {
		checkSurfaces(t, c, c.pairs(0), "BatchSolver")
	})
}
