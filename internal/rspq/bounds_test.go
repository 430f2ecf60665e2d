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

// allAlgorithms lists every Algorithm value, including ones the auto
// dispatcher never picks.
var allAlgorithms = []Algorithm{
	AlgoAuto, AlgoFinite, AlgoSubword, AlgoSummary, AlgoDAG,
	AlgoBaseline, AlgoWalk, AlgoNaive,
}

// TestOutOfRangeNoPanic drives every Algorithm value through SolveWith,
// and Solve, Shortest and ColorCoding, with out-of-range ids, on the
// language of every answer row, each on a cyclic graph and on the DAG
// row's acyclic one, expecting Found=false and no panic.
func TestOutOfRangeNoPanic(t *testing.T) {
	for _, row := range answerRows() {
		for _, g := range []*graph.Graph{graph.RandomRegular(12, []byte("abc"), 2, 3), graph.LayeredDAG(3, 4, 2, []byte("ab"), 5)} {
			c := newCase(t, row, row.pattern, g, 3)
			s, n := c.s, g.NumVertices()
			for _, pq := range outOfRange(n) {
				for _, algo := range allAlgorithms {
					if res := s.SolveWith(g, pq.X, pq.Y, algo); res.Found {
						t.Errorf("%s/%v: SolveWith(%d, %d) = Found on %d-vertex graph", c, algo, pq.X, pq.Y, n)
					}
				}
				if s.Solve(g, pq.X, pq.Y).Found || s.Shortest(g, pq.X, pq.Y).Found ||
					ColorCoding(g, s.Min, pq.X, pq.Y, 4, ColorCodingOptions{Seed: 1}).Found {
					t.Errorf("%s: Solve, Shortest or ColorCoding(%d, %d) found", c, pq.X, pq.Y)
				}
			}
		}
	}
}

// TestOutOfRangeStandaloneEntryPoints covers the exported tier
// functions that bypass the Solver dispatcher, on every answer row, and
// Naive.
func TestOutOfRangeStandaloneEntryPoints(t *testing.T) {
	for _, row := range answerRows() {
		c := newCase(t, row, row.pattern, row.graph(0, 10), 9)
		checkSurfaces(t, c, outOfRange(c.g.NumVertices()), "Solver", "tiers")
		for _, pq := range outOfRange(c.g.NumVertices()) {
			if Naive(c.g, c.s.Min, pq.X, pq.Y).Found {
				t.Errorf("%s: Naive(%d, %d) found", c, pq.X, pq.Y)
			}
		}
	}
}

// TestOutOfRangeVlg covers the vertex-labeled surfaces.
func TestOutOfRangeVlg(t *testing.T) {
	vg := graph.NewVGraph([]byte{'a', 'b', 'a', 'b'})
	vg.AddEdge(0, 1)
	vg.AddEdge(1, 2)
	s := mustSolver(t, "(ab)*")
	for _, pq := range outOfRange(vg.NumVertices()) {
		if s.SolveVlg(vg, pq.X, pq.Y).Found {
			t.Errorf("SolveVlg(%d, %d) found", pq.X, pq.Y)
		}
	}
	ev := graph.NewEVGraph([]byte{'a', 'b', 'a'})
	ev.AddEdge(0, 'x', 1)
	for _, pq := range outOfRange(ev.NumVertices()) {
		if s.SolveEvl(ev, pq.X, pq.Y).Found {
			t.Errorf("SolveEvl(%d, %d) found", pq.X, pq.Y)
		}
	}
}

// TestOutOfRangeBatch checks that the batch engine answers invalid
// pairs with Found=false while still answering the valid pairs of the
// same batch, for every language of every answer row.
func TestOutOfRangeBatch(t *testing.T) {
	for _, l := range languagesOf(answerRows()...) {
		t.Run(l.pattern, func(t *testing.T) {
			c := newCase(t, l.row, l.pattern, graph.RandomRegular(12, []byte{'a', 'b', 'c'}, 2, 4), 4)
			checkSurfaces(t, c, append([]Pair{{0, 5}, {2, 5}}, outOfRange(c.g.NumVertices())...), "BatchSolver")
		})
	}
}

// TestOutOfRangeEmptyGraph: on a 0-vertex graph every query is out of
// range, including (0, 0), for every language of every answer row.
func TestOutOfRangeEmptyGraph(t *testing.T) {
	empty := graph.New(0)
	for _, l := range languagesOf(answerRows()...) {
		pattern := l.pattern
		s := compiledSolver(t, pattern)
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
