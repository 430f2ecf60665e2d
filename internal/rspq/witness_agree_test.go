package rspq

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestWitnessAgreement pins that every tier reads one witness whichever
// surface asks: Solver.Solve, BatchSolver.Solve and Engine.Solve return
// the same vertex and label sequence for every pair, the engine both on
// a cold miss and on a table hit (on the tiers that keep a table), and
// Solver.Shortest's path is as long as BaselineShortest's. On every
// tier that sweeps — the walk-reduction tiers, and the summary and
// baseline tiers, which read the shortest walk first — the cold miss's
// sweep stops at the level that answers the source, and ShortestWalk
// finds a walk exactly when the forward reference search ExistsWalk
// says one exists. A found finite pair at depth ≥ 1 is traced as the
// finite tier with the deepening's search nodes.
func TestWitnessAgreement(t *testing.T) {
	abc, ab := []byte{'a', 'b', 'c'}, []byte{'a', 'b'}
	cases := []struct {
		name, pattern string
		tier          Algorithm
		g             *graph.Graph
	}{
		{"subword-regular", "a*c*", AlgoSubword, graph.RandomRegular(60, abc, 3, 12)},
		{"subword-sparse", "a*b?c*", AlgoSubword, graph.Random(50, abc, 0.06, 4)},
		{"dag-layered", "(a|b)*a(a|b)*", AlgoBaseline, graph.LayeredDAG(8, 6, 3, ab, 5)},
		{"dag-layered-ba", "a*ba*", AlgoBaseline, graph.LayeredDAG(6, 8, 2, ab, 9)},
		{"finite", "ab|ba|aab", AlgoFinite, graph.Random(40, ab, 0.08, 6)},
		{"summary", "a*(bb+|())c*", AlgoSummary, graph.Random(40, abc, 0.08, 7)},
		{"baseline", "(aa)*", AlgoBaseline, graph.RandomRegular(30, abc, 3, 9)},
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
			sweeps := c.tier != AlgoFinite
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
				short, ref := s.Shortest(g, x, y), BaselineShortest(g, s.Min, x, y, nil)
				if !VerifyWitness(short, g, s.Min, x, y) || short.Found != ref.Found ||
					short.Found && short.Path.Len() != ref.Path.Len() {
					t.Fatalf("Shortest(%d,%d) = %v; BaselineShortest %v", x, y, short.Path, ref.Path)
				}
				walk := ShortestWalk(g, s.Min, x, y)
				if ok := ExistsWalk(g, s.Min, x, y); (walk != nil) != ok {
					t.Fatalf("(%d,%d): ShortestWalk %v but ExistsWalk %v", x, y, walk, ok)
				}
				// A miss stops at the level that discovers x — the walk's
				// length, and level 1 for a source at the goal — and a
				// sweep without an answer runs to the end.
				stop := 0
				if walk != nil && sweeps {
					stop = max(walk.Len(), 1)
				}
				res, tr := cold.SolveTraced(x, y)
				if tr.TableCacheHit || tr.ResultCacheHit || tr.StoppedAt != stop {
					t.Fatalf("cold engine (%d,%d): trace %+v is not a miss stopped at %d", x, y, tr, stop)
				}
				sameWitness(t, "Engine miss", x, y, res, want)
				if c.tier == AlgoFinite && want.Found && x != y && (tr.Tier != "finite" || tr.SearchNodes == 0) {
					t.Fatalf("cold engine (%d,%d): trace %+v; a found finite pair is searched by the finite tier's deepening", x, y, tr)
				}
				if y == isolated {
					continue
				}
				if x == 0 {
					hot.Solve(isolated, y) // unreachable: the sweep runs to the end and is cached
				}
				res, tr = hot.SolveTraced(x, y)
				if x != isolated && c.tier != AlgoFinite && !tr.TableCacheHit { // the finite tier keeps no table
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
