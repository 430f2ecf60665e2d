package rspq

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// This file is the regression suite for the out-of-range crash bug: the
// seed implementation panicked with "index out of range" on
// Solve(g, -1, 0) and friends. Every query entry point must instead
// report Result{Found: false} for vertex ids outside [0, n).

// badPairs enumerates representative out-of-range (x, y) combinations
// for an n-vertex graph.
func badPairs(n int) [][2]int {
	return [][2]int{
		{-1, 0}, {0, -1}, {-1, -1},
		{n, 0}, {0, n}, {n + 5, n + 5},
		{-1, n}, {n, -1},
	}
}

// allAlgorithms lists every Algorithm value, including ones the auto
// dispatcher never picks.
var allAlgorithms = []Algorithm{
	AlgoAuto, AlgoFinite, AlgoSubword, AlgoSummary, AlgoDAG,
	AlgoBaseline, AlgoWalk, AlgoNaive,
}

// TestOutOfRangeNoPanic drives every Algorithm value through SolveWith
// with out-of-range ids, on languages from all three trichotomy tiers
// and on cyclic and acyclic graphs, expecting Found=false and no panic.
func TestOutOfRangeNoPanic(t *testing.T) {
	patterns := []string{
		"ab|ba|aab",    // finite (AC⁰ tier)
		"a*c*",         // subword-closed (trC(0))
		"a*(bb+|())c*", // tractable with Ψtr form (summary tier)
		"(aa)*",        // NP-complete (baseline tier)
	}
	cyclic := graph.RandomRegular(12, []byte{'a', 'b', 'c'}, 2, 3)
	dag := graph.LayeredDAG(3, 4, 2, []byte{'a', 'b'}, 5)
	for _, pattern := range patterns {
		s := mustSolver(t, pattern)
		for _, g := range []*graph.Graph{cyclic, dag} {
			n := g.NumVertices()
			for _, algo := range allAlgorithms {
				for _, pq := range badPairs(n) {
					res := s.SolveWith(g, pq[0], pq[1], algo)
					if res.Found {
						t.Errorf("%q/%v: SolveWith(%d, %d) = Found on %d-vertex graph", pattern, algo, pq[0], pq[1], n)
					}
				}
			}
			for _, pq := range badPairs(n) {
				if res := s.Solve(g, pq[0], pq[1]); res.Found {
					t.Errorf("%q: Solve(%d, %d) found", pattern, pq[0], pq[1])
				}
				if res := s.Shortest(g, pq[0], pq[1]); res.Found {
					t.Errorf("%q: Shortest(%d, %d) found", pattern, pq[0], pq[1])
				}
				if res := ColorCoding(g, s.Min, pq[0], pq[1], 4, ColorCodingOptions{Seed: 1}); res.Found {
					t.Errorf("%q: ColorCoding(%d, %d) found", pattern, pq[0], pq[1])
				}
			}
		}
	}
}

// TestOutOfRangeStandaloneEntryPoints covers the exported tier
// functions that bypass the Solver dispatcher.
func TestOutOfRangeStandaloneEntryPoints(t *testing.T) {
	g := graph.RandomRegular(10, []byte{'a', 'b', 'c'}, 2, 9)
	s := mustSolver(t, "a*(bb+|())c*")
	fin := mustSolver(t, "ab|ba")
	for _, pq := range badPairs(g.NumVertices()) {
		x, y := pq[0], pq[1]
		if Baseline(g, s.Min, x, y, nil).Found {
			t.Errorf("Baseline(%d, %d) found", x, y)
		}
		if BaselineShortest(g, s.Min, x, y, nil).Found {
			t.Errorf("BaselineShortest(%d, %d) found", x, y)
		}
		if SolvePsitr(g, s.Expr, x, y, false).Found {
			t.Errorf("SolvePsitr(%d, %d) found", x, y)
		}
		if Finite(g, fin.Min, x, y).Found {
			t.Errorf("Finite(%d, %d) found", x, y)
		}
		if Subword(g, s.Min, x, y).Found {
			t.Errorf("Subword(%d, %d) found", x, y)
		}
		if Naive(g, s.Min, x, y).Found {
			t.Errorf("Naive(%d, %d) found", x, y)
		}
		if ShortestWalk(g, s.Min, x, y) != nil {
			t.Errorf("ShortestWalk(%d, %d) non-nil", x, y)
		}
		if ExistsWalk(g, s.Min, x, y) {
			t.Errorf("ExistsWalk(%d, %d) true", x, y)
		}
	}
	dag := graph.LayeredDAG(3, 3, 2, []byte{'a', 'b'}, 1)
	for _, pq := range badPairs(dag.NumVertices()) {
		if res, ok := DAG(dag, s.Min, pq[0], pq[1]); !ok || res.Found {
			t.Errorf("DAG(%d, %d) = (%v, %v)", pq[0], pq[1], res.Found, ok)
		}
	}
}

// TestOutOfRangeVlg covers the vertex-labeled surfaces.
func TestOutOfRangeVlg(t *testing.T) {
	vg := graph.NewVGraph([]byte{'a', 'b', 'a', 'b'})
	vg.AddEdge(0, 1)
	vg.AddEdge(1, 2)
	s := mustSolver(t, "(ab)*")
	for _, pq := range badPairs(vg.NumVertices()) {
		if s.SolveVlg(vg, pq[0], pq[1]).Found {
			t.Errorf("SolveVlg(%d, %d) found", pq[0], pq[1])
		}
	}
	ev := graph.NewEVGraph([]byte{'a', 'b', 'a'})
	ev.AddEdge(0, 'x', 1)
	for _, pq := range badPairs(ev.NumVertices()) {
		if s.SolveEvl(ev, pq[0], pq[1]).Found {
			t.Errorf("SolveEvl(%d, %d) found", pq[0], pq[1])
		}
	}
}

// TestOutOfRangeBatch checks that the batch engine answers invalid
// pairs with Found=false while still answering the valid pairs of the
// same batch, across all dispatcher tiers.
func TestOutOfRangeBatch(t *testing.T) {
	for _, pattern := range []string{"ab|ba|aab", "a*c*", "a*(bb+|())c*", "(aa)*"} {
		t.Run(pattern, func(t *testing.T) {
			g := graph.RandomRegular(12, []byte{'a', 'b', 'c'}, 2, 4)
			s := mustSolver(t, pattern)
			pairs := []Pair{{X: -1, Y: 0}, {X: 0, Y: 5}, {X: 3, Y: 99}, {X: 2, Y: 5}, {X: 12, Y: -1}}
			got := s.BatchSolve(g, pairs)
			if len(got) != len(pairs) {
				t.Fatalf("got %d results for %d pairs", len(got), len(pairs))
			}
			for i, pq := range pairs {
				valid := pq.X >= 0 && pq.X < 12 && pq.Y >= 0 && pq.Y < 12
				if !valid && got[i].Found {
					t.Errorf("pair %v: invalid pair answered Found", pq)
				}
				if valid {
					want := s.Solve(g, pq.X, pq.Y)
					if got[i].Found != want.Found {
						t.Errorf("pair %v: batch=%v solve=%v", pq, got[i].Found, want.Found)
					}
				}
			}
		})
	}
}

// TestOutOfRangeEmptyGraph: on a 0-vertex graph every query is out of
// range, including (0, 0).
func TestOutOfRangeEmptyGraph(t *testing.T) {
	empty := graph.New(0)
	for _, pattern := range []string{"ab", "a*c*", "a*(bb+|())c*", "(aa)*"} {
		s := mustSolver(t, pattern)
		for _, algo := range allAlgorithms {
			if res := s.SolveWith(empty, 0, 0, algo); res.Found {
				t.Errorf("%q/%v: found a path in the empty graph", pattern, algo)
			}
		}
		if s.Shortest(empty, 0, 0).Found {
			t.Errorf("%q: Shortest found a path in the empty graph", pattern)
		}
		if got := s.BatchSolve(empty, []Pair{{0, 0}, {-1, 2}}); got[0].Found || got[1].Found {
			t.Errorf("%q: batch found a path in the empty graph", pattern)
		}
	}
}

// TestAlgorithmStringTotal pins String() for every Algorithm value used
// by the regression suite (and the fallback formatting).
func TestAlgorithmStringTotal(t *testing.T) {
	for _, algo := range allAlgorithms {
		if s := algo.String(); s == "" {
			t.Errorf("Algorithm(%d).String() empty", int(algo))
		}
	}
	if got := Algorithm(99).String(); got != fmt.Sprintf("Algorithm(%d)", 99) {
		t.Errorf("unknown algorithm string = %q", got)
	}
}
