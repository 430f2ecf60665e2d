package rspq

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestPaperFigure1Witness verifies the exact witness words the paper
// chooses in Figure 1 for L = a*b(cc)*d: wl = w1 = a, wm = b, w2 = cc,
// wr = d. Our extractor may pick different (longer) words; the paper's
// must also satisfy Property (1).
func TestPaperFigure1Witness(t *testing.T) {
	min := mustMin(t, "a*b(cc)*d")
	q1, ok1 := min.Run(min.Start, "a")
	q2, ok2 := min.Run(q1, "b")
	if !ok1 || !ok2 {
		t.Fatal("run failed")
	}
	w := &core.HardnessWitness{Q1: q1, Q2: q2, WL: "a", W1: "a", WM: "b", W2: "cc", WR: "d"}
	if err := w.Verify(min); err != nil {
		t.Fatalf("the paper's Figure 1 witness must verify: %v", err)
	}
}

// TestVlgWitnessExtraction extracts a vlg-restricted Property-(1)
// witness (w1 and w2 ending with the same letter) for languages that
// stay NP-complete on vertex-labeled graphs.
func TestVlgWitnessExtraction(t *testing.T) {
	same := func(a, b byte) bool { return a == b }
	for _, pattern := range []string{"a*ba*", "(aa)*", "a*bba*"} {
		min := mustMin(t, pattern)
		w, err := core.ExtractHardnessWitness(min, same)
		if err != nil {
			t.Fatalf("%q: %v", pattern, err)
		}
		if err := w.Verify(min); err != nil {
			t.Fatalf("%q: witness does not verify: %v", pattern, err)
		}
		if w.W1[len(w.W1)-1] != w.W2[len(w.W2)-1] {
			t.Errorf("%q: vlg witness loop words must end with the same letter: %q %q", pattern, w.W1, w.W2)
		}
	}
}

// TestEvlSolve runs the vertex-edge-labeled model end to end: an
// evl-graph whose paired alphabet makes an (ab)-style alternation
// letter-synchronizing.
func TestEvlSolve(t *testing.T) {
	ev := graph.NewEVGraph([]byte{'a', 'b', 'a', 'b'})
	ev.AddEdge(0, 'x', 1)
	ev.AddEdge(1, 'x', 2)
	ev.AddEdge(2, 'x', 3)
	// Pattern over paired labels: entering a 'b'-vertex via 'x' then an
	// 'a'-vertex via 'x', repeatedly.
	bx := graph.PairLabel('b', 'x')
	ax := graph.PairLabel('a', 'x')
	pattern := fmt.Sprintf("(%c%c)*", bx, ax)
	s := mustSolver(t, pattern)
	d := s.Min
	res := s.SolveEvl(ev, 0, 2)
	if !res.Found || len(res.Path.Labels) != 2 {
		t.Fatalf("evl solve: %v", res)
	}
	db := ev.DBGraph()
	if !VerifyWitness(res, db, d.Minimize(), 0, 2) {
		t.Fatal("invalid evl witness")
	}
	// Cross-validate against the baseline on evl-graphs: an x-cycle
	// through 8 alternately labelled vertices, y-chords from the even ones.
	for seed := int64(0); seed < 3; seed++ {
		evr := graph.NewEVGraph([]byte("ababababa"[seed%2 : seed%2+8]))
		for u := 0; u < 8; u++ {
			evr.AddEdge(u, 'x', (u+1)%8)
			if u%2 == 0 {
				evr.AddEdge(u, 'y', (u+3)%8)
			}
		}
		dbr := evr.DBGraph()
		got := s.SolveEvl(evr, 0, 7)
		want := Baseline(dbr, d.Minimize(), 0, 7, nil)
		if got.Found != want.Found {
			t.Fatalf("seed %d: evl=%v baseline=%v", seed, got.Found, want.Found)
		}
	}
}

// TestParallelEdgesAndSelfLoops stresses graph shapes the random
// generators rarely produce: parallel edges 0 -a-> 1 and 0 -b-> 1, and
// a self loop on 1.
func TestParallelEdgesAndSelfLoops(t *testing.T) {
	shape := func(int64) *graph.Graph { return edgeGraph(3, "0a1 0b1 1a1 1c2") }
	checkGraphs(t, languagesOf(answerRows()...), 1, 1, shape, "Solver")
	// The self loop can never appear on a simple path: "aac" requires
	// revisiting vertex 1.
	if res := mustSolver(t, "aac").Solve(shape(0), 0, 2); res.Found {
		t.Error("aac needs the self loop and cannot be simple")
	}
}

// TestDisconnectedQueries checks NO answers across components.
func TestDisconnectedQueries(t *testing.T) {
	checkGraphs(t, languagesOf(answerRows()...), 1, 1, func(int64) *graph.Graph { return edgeGraph(4, "0a1 2a3") }, "Solver")
}

// TestSolveWithEveryAlgorithm exercises every forced strategy on one
// graph: the exact ones agree with the reference (the SolveWith
// surface), the walk may differ only toward YES, and naive only toward
// NO.
func TestSolveWithEveryAlgorithm(t *testing.T) {
	c := newCase(t, tier("summary"), "a*(bb+|())c*", graph.Random(10, []byte{'a', 'b', 'c'}, 0.25, 9), 9)
	r := checkSurfaces(t, c, c.pairs(3), "SolveWith")
	for i, pq := range r.pairs {
		walk, naive := c.s.SolveWith(c.g, pq.X, pq.Y, AlgoWalk), c.s.SolveWith(c.g, pq.X, pq.Y, AlgoNaive)
		if r.found[i] && !walk.Found || naive.Found && !walk.Found {
			t.Fatalf("%s (%d,%d): walk found=%v, naive found=%v; walks subsume simple paths and naive answers", c, pq.X, pq.Y, walk.Found, naive.Found)
		}
	}
}

// TestLollipopStress runs the solvers on the lollipop shape, where the
// clique offers factorially many orderings.
func TestLollipopStress(t *testing.T) {
	g, src, dst := graph.Lollipop(5, 6)
	c := newCase(t, tier("subword"), "a*", g, 0)
	r := checkSurfaces(t, c, []Pair{{X: src, Y: dst}}, "Solver")
	if !r.found[0] || r.lengths(t, c)[0] != 7 { // 5 path edges + entry + across clique
		t.Errorf("lollipop: found=%v, shortest length %d; want a path of 7", r.found[0], r.length[0])
	}
}

// TestGridHardInstance replays Barrett et al.'s observation (related
// work): grids with a fixed language keep the baseline honest but stay
// solvable at small sizes.
func TestGridHardInstance(t *testing.T) {
	c := newCase(t, tier("baseline"), "(rd)*", graph.Grid(4, 4, 'r', 'd'), 0)
	if r := checkSurfaces(t, c, []Pair{{0, 15}}, "Solver", "tiers"); !r.found[0] {
		t.Error("the staircase rdrdrd exists in a 4x4 grid")
	}
}

// TestLargerAlphabet checks that nothing assumes a binary/ternary
// alphabet.
func TestLargerAlphabet(t *testing.T) {
	checkGraphs(t, languagesOf(tier("summary")), 1, 4, func(int64) *graph.Graph {
		return graph.Random(12, []byte{'a', 'b', 'c', 'd', 'e', 'f'}, 0.25, 31)
	}, "Solver")
}

// TestShortestWalkIsBFSOptimal: the RPQ walk is a true shortest walk.
func TestShortestWalkIsBFSOptimal(t *testing.T) {
	g, x, y := graph.LabeledPath("aaa")
	g.AddEdge(x, 'a', y) // shortcut
	d := mustMin(t, "a*")
	w := ShortestWalk(g, d, x, y)
	if w == nil || w.Len() != 1 {
		t.Fatalf("expected the 1-edge shortcut, got %v", w)
	}
}
