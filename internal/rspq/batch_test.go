package rspq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// tierCases pairs one language per dispatcher tier with a graph that
// routes it there (the DAG tier is reached by graph shape, not
// language).
func tierCases() []struct {
	name    string
	pattern string
	g       func(seed int64) *graph.Graph
} {
	return []struct {
		name    string
		pattern string
		g       func(seed int64) *graph.Graph
	}{
		{"finite", "ab|ba|aab", func(seed int64) *graph.Graph {
			return graph.Random(30, []byte{'a', 'b'}, 0.08, seed)
		}},
		{"subword", "a*c*", func(seed int64) *graph.Graph {
			return graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, seed)
		}},
		{"summary", "a*(bb+|())c*", func(seed int64) *graph.Graph {
			return graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, seed)
		}},
		{"summary-adjacent-gaps", "a+c?b+", func(seed int64) *graph.Graph {
			return graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, seed)
		}},
		{"dag", "(a|b)*a(a|b)*", func(seed int64) *graph.Graph {
			return graph.LayeredDAG(5, 6, 3, []byte{'a', 'b'}, seed)
		}},
		{"baseline", "(aa)*", func(seed int64) *graph.Graph {
			return graph.Random(25, []byte{'a', 'b'}, 0.1, seed)
		}},
	}
}

// TestBatchMatchesSolve is the randomized equivalence suite: on every
// dispatcher tier, BatchSolve must agree with per-query Solve on Found
// for every pair, and every witness must verify independently.
func TestBatchMatchesSolve(t *testing.T) {
	for _, tc := range tierCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSolver(t, tc.pattern)
			for seed := int64(0); seed < 4; seed++ {
				g := tc.g(seed)
				n := g.NumVertices()
				rng := rand.New(rand.NewSource(seed * 31))
				// Grouped shape: few targets, many sources, plus some
				// fully random pairs and duplicates.
				var pairs []Pair
				for ti := 0; ti < 4; ti++ {
					y := rng.Intn(n)
					for si := 0; si < 12; si++ {
						pairs = append(pairs, Pair{X: rng.Intn(n), Y: y})
					}
				}
				for i := 0; i < 16; i++ {
					pairs = append(pairs, Pair{X: rng.Intn(n), Y: rng.Intn(n)})
				}
				pairs = append(pairs, pairs[0], pairs[len(pairs)-1])

				got := s.BatchSolve(g, pairs)
				if len(got) != len(pairs) {
					t.Fatalf("%d results for %d pairs", len(got), len(pairs))
				}
				for i, pq := range pairs {
					want := s.Solve(g, pq.X, pq.Y)
					if got[i].Found != want.Found {
						t.Fatalf("seed %d pair %v: batch=%v solve=%v", seed, pq, got[i].Found, want.Found)
					}
					if !VerifyWitness(got[i], g, s.Min, pq.X, pq.Y) {
						t.Fatalf("seed %d pair %v: invalid batch witness %v", seed, pq, got[i].Path)
					}
				}
			}
		})
	}
}

// TestBatchMatchesBaseline cross-checks the batch engine against the
// exponential ground truth directly (not just against Solve), so a bug
// shared by both per-query and batched tier code would still surface.
func TestBatchMatchesBaseline(t *testing.T) {
	for _, tc := range tierCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSolver(t, tc.pattern)
			g := tc.g(11)
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(99))
			var pairs []Pair
			for i := 0; i < 40; i++ {
				pairs = append(pairs, Pair{X: rng.Intn(n), Y: rng.Intn(n)})
			}
			got := s.BatchSolve(g, pairs)
			for i, pq := range pairs {
				want := Baseline(g, s.Min, pq.X, pq.Y, nil)
				if got[i].Found != want.Found {
					t.Fatalf("pair %v: batch=%v baseline=%v", pq, got[i].Found, want.Found)
				}
			}
		})
	}
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
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got := bs.SetWorkers(n + 1).Solve(pairs)
				for j := range pairs {
					if got[j].Found != want[j].Found {
						t.Errorf("pair %v: %v != %v", pairs[j], got[j].Found, want[j].Found)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBatchConcurrentStress hammers one BatchSolver from many
// goroutines at once (run with -race): batches must not interfere with
// each other or with interleaved per-query Solve calls.
func TestBatchConcurrentStress(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")
	g := graph.RandomRegular(60, []byte{'a', 'b', 'c'}, 3, 13)
	bs := NewBatchSolver(s, g)

	// Reference answers, computed serially.
	ref := make(map[Pair]bool)
	for y := 0; y < 6; y++ {
		for x := 0; x < 60; x++ {
			ref[Pair{X: x, Y: y}] = s.Solve(g, x, y).Found
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
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
		}(int64(w))
	}
	wg.Wait()
}

// TestBatchSolveExists pins the existence-only fast path to the full
// Solve results on every tier, including invalid ids.
func TestBatchSolveExists(t *testing.T) {
	for _, c := range engineTierCases() {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSolver(c.pattern)
			if err != nil {
				t.Fatal(err)
			}
			bs := NewBatchSolver(s, c.g)
			n := c.g.NumVertices()
			pairs := probePairs(n, 80, 29)
			pairs = append(pairs, Pair{X: -1, Y: 2}, Pair{X: 2, Y: n})
			full := bs.Solve(pairs)
			bits := bs.SolveExists(pairs)
			if len(bits) != len(pairs) {
				t.Fatalf("len = %d; want %d", len(bits), len(pairs))
			}
			for i := range pairs {
				if bits[i] != full[i].Found {
					t.Fatalf("pair %d (%d,%d): exists = %v, Solve.Found = %v",
						i, pairs[i].X, pairs[i].Y, bits[i], full[i].Found)
				}
			}
			// Single-worker path must agree too.
			one := NewBatchSolver(s, c.g).SetWorkers(1).SolveExists(pairs)
			for i := range one {
				if one[i] != bits[i] {
					t.Fatalf("single-worker exists diverged at %d", i)
				}
			}
		})
	}
}
