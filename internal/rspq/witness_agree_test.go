package rspq

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestWalkTierWitnessAgreement pins that the walk-reduction tiers read
// one witness whichever surface asks. On the subword and DAG tiers,
// Solver.Solve, BatchSolver.Solve and Engine.Solve return the same
// vertex and label sequence for every pair, the engine both on a cold
// miss (its own sweep, stopped at the level that answers the source)
// and on a goal-table hit; and ShortestWalk finds a walk exactly when
// the forward reference search ExistsWalk says one exists.
func TestWalkTierWitnessAgreement(t *testing.T) {
	abc, ab := []byte{'a', 'b', 'c'}, []byte{'a', 'b'}
	cases := []struct {
		name, pattern string
		tier          Algorithm
		g             *graph.Graph
	}{
		{"subword-regular", "a*c*", AlgoSubword, graph.RandomRegular(60, abc, 3, 12)},
		{"subword-sparse", "a*b?c*", AlgoSubword, graph.Random(50, abc, 0.06, 4)},
		{"dag-layered", "(a|b)*a(a|b)*", AlgoDAG, graph.LayeredDAG(8, 6, 3, ab, 5)},
		{"dag-layered-ba", "a*ba*", AlgoDAG, graph.LayeredDAG(6, 8, 2, ab, 9)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSolver(c.pattern)
			if err != nil {
				t.Fatal(err)
			}
			g := c.g
			isolated := g.AddVertex() // a source whose sweep runs to the end, leaving a table
			g.Freeze()
			if got := s.ChooseAlgorithm(g); got != c.tier {
				t.Fatalf("tier %v; the case is meant for %v", got, c.tier)
			}
			n := g.NumVertices()
			var pairs []Pair
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					pairs = append(pairs, Pair{X: x, Y: y})
				}
			}
			batch := NewBatchSolver(s, g).Solve(pairs)
			cold := NewEngine(s, g, EngineConfig{TableBytes: -1})
			hot := NewEngine(s, g, EngineConfig{})
			found := 0
			for i, pq := range pairs {
				x, y := pq.X, pq.Y
				want := s.Solve(g, x, y)
				if !VerifyWitness(want, g, s.Min, x, y) {
					t.Fatalf("Solve(%d,%d): invalid witness %v", x, y, want.Path)
				}
				if want.Found {
					found++
				}
				sameWitness(t, "BatchSolver", x, y, batch[i], want)
				walk := ShortestWalk(g, s.Min, x, y)
				if ok := ExistsWalk(g, s.Min, x, y); (walk != nil) != ok {
					t.Fatalf("(%d,%d): ShortestWalk %v but ExistsWalk %v", x, y, walk, ok)
				}
				// A miss stops at the level that discovers x — the walk's
				// length, and level 1 for a source at the goal — and a
				// sweep without an answer runs to the end.
				stop := 0
				if walk != nil {
					stop = max(walk.Len(), 1)
				}
				res, tr := cold.SolveTraced(x, y)
				if tr.TableCacheHit || tr.ResultCacheHit || tr.StoppedAt != stop {
					t.Fatalf("cold engine (%d,%d): trace %+v is not a miss stopped at %d", x, y, tr, stop)
				}
				sameWitness(t, "Engine miss", x, y, res, want)
				if y == isolated {
					continue
				}
				if x == 0 {
					hot.Solve(isolated, y) // unreachable: the sweep runs to the end and is cached
				}
				res, tr = hot.SolveTraced(x, y)
				if x != isolated && !tr.TableCacheHit {
					t.Fatalf("hot engine (%d,%d): trace %+v is not a table hit", x, y, tr)
				}
				sameWitness(t, "Engine table hit", x, y, res, want)
			}
			if found == 0 || found == len(pairs) {
				t.Fatalf("%d of %d pairs found; the case must have both answers", found, len(pairs))
			}
		})
	}
}

// sameWitness fails unless got is want with the same vertex and label
// sequence.
func sameWitness(t *testing.T, who string, x, y int, got, want Result) {
	t.Helper()
	if got.Found != want.Found {
		t.Fatalf("%s(%d,%d).Found = %v; Solver.Solve %v", who, x, y, got.Found, want.Found)
	}
	if !want.Found {
		return
	}
	if !slices.Equal(got.Path.Vertices, want.Path.Vertices) || !slices.Equal(got.Path.Labels, want.Path.Labels) {
		t.Fatalf("%s(%d,%d) = %v; Solver.Solve %v", who, x, y, got.Path, want.Path)
	}
}
