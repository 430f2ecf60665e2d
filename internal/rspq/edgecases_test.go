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
	q1, ok := min.Run(min.Start, "a")
	if !ok {
		t.Fatal("run failed")
	}
	q2, ok := min.Run(q1, "b")
	if !ok {
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
	// Cross-validate against the baseline on random evl-graphs.
	for seed := int64(0); seed < 3; seed++ {
		evr := randomEVGraph(8, seed)
		dbr := evr.DBGraph()
		got := s.SolveEvl(evr, 0, 7)
		want := Baseline(dbr, d.Minimize(), 0, 7, nil)
		if got.Found != want.Found {
			t.Fatalf("seed %d: evl=%v baseline=%v", seed, got.Found, want.Found)
		}
	}
}

func randomEVGraph(n int, seed int64) *graph.EVGraph {
	labels := make([]byte, n)
	for i := range labels {
		labels[i] = []byte{'a', 'b'}[(int(seed)+i)%2]
	}
	ev := graph.NewEVGraph(labels)
	for u := 0; u < n; u++ {
		ev.AddEdge(u, 'x', (u+1)%n)
		if u%2 == 0 {
			ev.AddEdge(u, 'y', (u+3)%n)
		}
	}
	return ev
}

// TestParallelEdgesAndSelfLoops stresses graph shapes the random
// generators rarely produce.
func TestParallelEdgesAndSelfLoops(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(0, 'b', 1) // parallel, different label
	g.AddEdge(1, 'a', 1) // self loop
	g.AddEdge(1, 'c', 2)

	for _, pattern := range []string{"ac", "bc", "a*c*", "(a|b)c"} {
		s := mustSolver(t, pattern)
		got := s.Solve(g, 0, 2)
		want := Baseline(g, s.Min, 0, 2, nil)
		if got.Found != want.Found {
			t.Errorf("%q: dispatcher=%v baseline=%v", pattern, got.Found, want.Found)
		}
		if !VerifyWitness(got, g, s.Min, 0, 2) {
			t.Errorf("%q: invalid witness", pattern)
		}
	}
	// The self loop can never appear on a simple path: "aac" requires
	// revisiting vertex 1.
	if res := mustSolver(t, "aac").Solve(g, 0, 2); res.Found {
		t.Error("aac needs the self loop and cannot be simple")
	}
}

// TestDisconnectedQueries checks NO answers across components.
func TestDisconnectedQueries(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(2, 'a', 3)
	for _, pattern := range []string{"a", "a*", "a*(bb+|())c*"} {
		s := mustSolver(t, pattern)
		if res := s.Solve(g, 0, 3); res.Found {
			t.Errorf("%q: components are disconnected", pattern)
		}
	}
}

// TestSolveWithEveryAlgorithm exercises every forced strategy on one
// solvable instance; exact strategies must agree, the walk may differ
// only toward YES, and naive may differ only toward NO.
func TestSolveWithEveryAlgorithm(t *testing.T) {
	g := graph.Random(10, []byte{'a', 'b', 'c'}, 0.25, 9)
	s := mustSolver(t, "a*(bb+|())c*")
	for x := 0; x < 10; x += 3 {
		for y := 1; y < 10; y += 3 {
			want := s.SolveWith(g, x, y, AlgoBaseline)
			for _, algo := range []Algorithm{AlgoSummary, AlgoAuto} {
				got := s.SolveWith(g, x, y, algo)
				if got.Found != want.Found {
					t.Fatalf("algo %v at (%d,%d): %v vs %v", algo, x, y, got.Found, want.Found)
				}
			}
			walk := s.SolveWith(g, x, y, AlgoWalk)
			if want.Found && !walk.Found {
				t.Fatal("walk semantics must subsume simple paths")
			}
			naive := s.SolveWith(g, x, y, AlgoNaive)
			if naive.Found && !walk.Found {
				t.Fatal("naive cannot find more than walks")
			}
		}
	}
}

// TestLollipopStress runs the summary solver on the lollipop shape
// where the clique offers factorially many orderings.
func TestLollipopStress(t *testing.T) {
	g, src, dst := graph.Lollipop(5, 6)
	s := mustSolver(t, "a*")
	got := s.Solve(g, src, dst)
	if !got.Found {
		t.Fatal("lollipop target must be reachable")
	}
	if !VerifyWitness(got, g, s.Min, src, dst) {
		t.Fatal("invalid witness")
	}
	short := s.Shortest(g, src, dst)
	if short.Path.Len() != 7 { // 5 path edges + entry + across clique
		t.Errorf("shortest lollipop path length %d, want 7", short.Path.Len())
	}
}

// TestGridHardInstance replays Barrett et al.'s observation (related
// work): grids with a fixed language keep the baseline honest but stay
// solvable at small sizes.
func TestGridHardInstance(t *testing.T) {
	g := graph.Grid(4, 4, 'r', 'd')
	s := mustSolver(t, "(rd)*")
	got := s.Solve(g, 0, 15)
	want := Baseline(g, s.Min, 0, 15, nil)
	if got.Found != want.Found {
		t.Fatalf("grid: %v vs %v", got.Found, want.Found)
	}
	if !got.Found {
		t.Error("the staircase rdrdrd exists in a 4x4 grid")
	}
}

// TestLargerAlphabet checks that nothing assumes a binary/ternary
// alphabet.
func TestLargerAlphabet(t *testing.T) {
	labels := []byte{'a', 'b', 'c', 'd', 'e', 'f'}
	g := graph.Random(12, labels, 0.25, 31)
	s := mustSolver(t, "[abc]*(de)?f*")
	for x := 0; x < 12; x += 4 {
		for y := 2; y < 12; y += 4 {
			got := s.Solve(g, x, y)
			want := Baseline(g, s.Min, x, y, nil)
			if got.Found != want.Found {
				t.Fatalf("(%d,%d): %v vs %v", x, y, got.Found, want.Found)
			}
		}
	}
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
