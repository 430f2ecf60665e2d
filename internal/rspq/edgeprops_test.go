package rspq

import (
	"testing"

	"repro/internal/graph"
)

// This file is the edge-case sweep of the query surface: degenerate
// graph shapes (single vertex, isolated vertices, no edges) and
// degenerate queries (x == y, with and without ε in L), every pair of
// each degenerate shape, for every language of every answer row — ε-only and finite
// with ε among them — held to the reference by the Solver, the bare tier
// functions and the BatchSolver (checkSurfaces). The out-of-range cases
// live in bounds_test.go.

// checkShape runs the sweep on a fresh graph of one shape for each
// language: every stride-th vertex in each role.
func checkShape(t *testing.T, stride int, shape func() *graph.Graph, extra func(t *testing.T, c *hCase)) {
	for _, l := range languagesOf(answerRows()...) {
		c := newCase(t, l.row, l.pattern, shape(), 0)
		checkSurfaces(t, c, c.pairs(stride), "Solver", "SolveWith", "tiers", "BatchSolver")
		if extra != nil {
			extra(t, c)
		}
	}
}

// TestSweepSingleVertex: a one-vertex graph with no edges. x == y == 0
// is answerable iff ε ∈ L.
func TestSweepSingleVertex(t *testing.T) {
	checkShape(t, 1, func() *graph.Graph { return graph.New(1) }, func(t *testing.T, c *hCase) {
		if res, want := c.s.Solve(c.g, 0, 0), c.s.Min.Member(""); res.Found != want {
			t.Errorf("%s: single vertex x==y: got %v, want ε-membership %v", c, res.Found, want)
		}
	})
}

// TestSweepSelfQueries: x == y on vertices of a graph with a cycle
// 0→1→2→0 (a simple path from v to v is still just the empty path, since
// any longer closed walk repeats v) and an isolated vertex, 3.
func TestSweepSelfQueries(t *testing.T) {
	checkShape(t, 1, func() *graph.Graph { return edgeGraph(4, "0a1 1b2 2a0") }, func(t *testing.T, c *hCase) {
		for v := 0; v < 4; v++ {
			if res, eps := c.s.Solve(c.g, v, v), c.s.Min.Member(""); res.Found != eps || res.Found && res.Path.Len() != 0 {
				t.Errorf("%s: Solve(%d,%d) = %v, want the empty path iff ε ∈ L (%v)", c, v, v, res.Path, eps)
			}
		}
	})
}

// TestSweepIsolatedVertices: queries into, out of, and between vertices
// with no incident edges (2, 3 and 4) must answer NO (unless x == y and
// ε ∈ L).
func TestSweepIsolatedVertices(t *testing.T) {
	checkShape(t, 1, func() *graph.Graph { return edgeGraph(5, "0a1") }, func(t *testing.T, c *hCase) {
		for _, pq := range []Pair{{2, 3}, {3, 2}, {0, 4}, {4, 0}, {2, 0}, {1, 2}} {
			if res := c.s.Solve(c.g, pq.X, pq.Y); res.Found {
				t.Errorf("%s: path %d→%d through isolated vertices: %v", c, pq.X, pq.Y, res.Path)
			}
		}
	})
}

// TestSweepEdgelessGraph: several vertices, zero edges.
func TestSweepEdgelessGraph(t *testing.T) {
	checkShape(t, 1, func() *graph.Graph { return graph.New(3) }, nil)
}

// TestSweepRandomized: random 9-vertex graphs sparse enough to leave
// isolated vertices and dead ends, six seeds, every other vertex in each
// role.
func TestSweepRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		checkShape(t, 2, func() *graph.Graph { return graph.Random(9, []byte("abc"), 0.12, seed*7+1) }, nil)
	}
}

// TestSweepBatchDegenerate runs every surface, the Engine's too, over a
// one-vertex graph with a self loop and a three-vertex one with a
// two-cycle, since the batch engine has its own dispatch path.
func TestSweepBatchDegenerate(t *testing.T) {
	for _, shape := range []func() *graph.Graph{
		func() *graph.Graph { return edgeGraph(1, "0a0") },
		func() *graph.Graph { return edgeGraph(3, "0a1 1b0") },
	} {
		for _, l := range languagesOf(answerRows()...) {
			c := newCase(t, l.row, l.pattern, shape(), 0)
			checkSurfaces(t, c, c.pairs(1))
		}
	}
}
