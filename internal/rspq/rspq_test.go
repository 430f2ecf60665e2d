package rspq

import (
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
)

func mustSolver(t testing.TB, pattern string) *Solver {
	t.Helper()
	s, err := NewSolver(pattern)
	if err != nil {
		t.Fatalf("NewSolver(%q): %v", pattern, err)
	}
	return s
}

func mustMin(t testing.TB, pattern string) *automaton.DFA {
	t.Helper()
	d, err := automaton.MinDFAFromPattern(pattern)
	if err != nil {
		t.Fatalf("pattern %q: %v", pattern, err)
	}
	return d
}

func TestShortestWalkBasics(t *testing.T) {
	g, x, y := graph.LabeledPath("abc")
	d := mustMin(t, "abc")
	w := ShortestWalk(g, d, x, y)
	if w == nil || w.Word() != "abc" {
		t.Fatalf("walk = %v", w)
	}
	if ShortestWalk(g, mustMin(t, "ccc"), x, y) != nil {
		t.Error("ccc walk should not exist")
	}
	// A walk may revisit vertices: cycle graph spelling "ab", query
	// (aa)...: 0 -a-> 1 -b-> 0: word abab from 0 to 0.
	cyc := graph.LabeledCycle("ab")
	dd := mustMin(t, "abab")
	w2 := ShortestWalk(cyc, dd, 0, 0)
	if w2 == nil || w2.Word() != "abab" {
		t.Fatalf("cyclic walk = %v", w2)
	}
	if w2.IsSimple() {
		t.Error("abab walk on a 2-cycle cannot be simple")
	}
}

func TestBaselineSimplePathOnly(t *testing.T) {
	// Same 2-cycle: no SIMPLE abab path exists.
	cyc := graph.LabeledCycle("ab")
	d := mustMin(t, "abab")
	if res := Baseline(cyc, d, 0, 0, nil); res.Found {
		t.Errorf("baseline found non-simple path %v", res.Path)
	}
	// But "ab" from 0 to 0 is... also not simple (0 repeats).
	if res := Baseline(cyc, mustMin(t, "ab"), 0, 0, nil); res.Found {
		t.Error("cycle back to start is never simple (length > 0)")
	}
	// x == y with ε ∈ L is the empty path, which is simple.
	if res := Baseline(cyc, mustMin(t, "(ab)*"), 0, 0, nil); !res.Found || res.Path.Len() != 0 {
		t.Error("empty path expected for ε at x == y")
	}
}

func TestBaselineStats(t *testing.T) {
	g := graph.RandomRegular(12, []byte{'a', 'b'}, 3, 3)
	var stats BaselineStats
	Baseline(g, mustMin(t, "a*ba*"), 0, 11, &stats)
	if stats.Nodes == 0 {
		t.Error("stats not collected")
	}
}

func TestFigure4Counterexample(t *testing.T) {
	// The paper's Figure 4: an L-labeled walk exists for
	// L = a*(bb+|())c*, no simple L-labeled path exists, and loop
	// elimination cannot fix the walk.
	f := graph.NewFigure4(4)
	d := mustMin(t, "a*(bb+|())c*")
	if !ExistsWalk(f.G, d, f.X0, f.Y2k) {
		t.Fatal("Figure 4 must admit an L-labeled walk")
	}
	if res := Baseline(f.G, d, f.X0, f.Y2k, nil); res.Found {
		t.Fatalf("Figure 4 must have no simple L-path; got %v", res.Path)
	}
	s := mustSolver(t, "a*(bb+|())c*")
	if s.Expr == nil {
		t.Fatal("Example 1 language must normalize to Ψtr")
	}
	if res := SolvePsitr(f.G, s.Expr, f.X0, f.Y2k, false); res.Found {
		t.Fatalf("summary solver must agree NO on Figure 4; got %v", res.Path)
	}
	if res := Naive(f.G, d, f.X0, f.Y2k); res.Found {
		t.Error("naive loop elimination should fail on Figure 4")
	}
}

func TestLoopTrapDiscriminatesNaive(t *testing.T) {
	// On the LoopTrap family the naive heuristic answers NO although a
	// simple a*bba*-labeled path exists; the exact solvers find it.
	tr := graph.NewLoopTrap(3)
	d := mustMin(t, "a*bba*")
	naive := Naive(tr.G, d, tr.X, tr.Y)
	if naive.Found {
		t.Error("naive should fail on the loop trap (its shortest walk loops)")
	}
	exact := Baseline(tr.G, d, tr.X, tr.Y, nil)
	if !exact.Found {
		t.Fatal("a simple path exists in the loop trap")
	}
	if !VerifyWitness(exact, tr.G, d, tr.X, tr.Y) {
		t.Error("baseline witness invalid")
	}
	s := mustSolver(t, "a*bba*")
	// a*bba* is NOT in trC (b is pinned between a-loops? actually:
	// w1 = a, w2 = a pumping deletes nothing — but w1 = a, wm = bb:
	// a^M bb a^M ∈ L, a^M a^M ∉ L) — the dispatcher must route to the
	// baseline and still answer correctly.
	if s.Classification.Tractable {
		t.Error("a*bba* should be intractable")
	}
	if res := s.Solve(tr.G, tr.X, tr.Y); !res.Found {
		t.Error("dispatcher must find the loop-trap path")
	}
}

func TestFiniteSolver(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(0, 'b', 3)
	g.AddEdge(3, 'a', 2)
	d := mustMin(t, "ab|ba")
	res := Finite(g, d, 0, 2)
	if !res.Found || !VerifyWitness(res, g, d, 0, 2) {
		t.Fatalf("finite solver failed: %v", res)
	}
	if res := Finite(g, mustMin(t, "aa"), 0, 2); res.Found {
		t.Error("no aa path exists")
	}
	// Shortest-word priority: for a|ab with both available, the single
	// edge wins.
	g2 := graph.New(3)
	g2.AddEdge(0, 'a', 2)
	g2.AddEdge(0, 'a', 1)
	g2.AddEdge(1, 'b', 2)
	res = Finite(g2, mustMin(t, "a|ab"), 0, 2)
	if !res.Found || res.Path.Len() != 1 {
		t.Errorf("finite solver should prefer the shorter word: %v", res.Path)
	}
}

func TestDAGSolver(t *testing.T) {
	dag := graph.LayeredDAG(5, 4, 2, []byte{'a', 'b'}, 11)
	d := mustMin(t, "(a|b)*a(a|b)*")
	for x := 0; x < 4; x++ {
		for y := 16; y < 20; y++ {
			got, ok := DAG(dag, d, x, y)
			if !ok {
				t.Fatal("layered graph must be acyclic")
			}
			want := Baseline(dag, d, x, y, nil)
			if got.Found != want.Found {
				t.Errorf("DAG(%d,%d) = %v, baseline %v", x, y, got.Found, want.Found)
			}
			if !VerifyWitness(got, dag, d, x, y) {
				t.Error("DAG witness invalid")
			}
		}
	}
	if _, ok := DAG(graph.LabeledCycle("ab"), d, 0, 0); ok {
		t.Error("cycle must be rejected by the DAG solver")
	}
}

func TestSubwordClosedDetection(t *testing.T) {
	cases := []struct {
		pattern string
		want    bool
	}{
		{"a*c*", true},
		{"(a|b)*", true},
		{"a*", true},
		{"()", true},
		{"a*(bb+|())c*", false}, // trC but not subword-closed
		{"a*ba*", false},
		{"ab", false},
	}
	for _, c := range cases {
		if got := SubwordClosed(mustMin(t, c.pattern)); got != c.want {
			t.Errorf("SubwordClosed(%q) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

func TestSubwordSolverAgreesWithBaseline(t *testing.T) {
	d := mustMin(t, "a*c*")
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(10, []byte{'a', 'b', 'c'}, 0.18, seed)
		for x := 0; x < 5; x++ {
			for y := 5; y < 10; y++ {
				got := Subword(g, d, x, y)
				want := Baseline(g, d, x, y, nil)
				if got.Found != want.Found {
					t.Fatalf("seed %d (%d,%d): subword %v baseline %v", seed, x, y, got.Found, want.Found)
				}
				if !VerifyWitness(got, g, d, x, y) {
					t.Fatal("subword witness invalid")
				}
				// Subword results are shortest.
				if got.Found {
					sh := BaselineShortest(g, d, x, y, nil)
					if got.Path.Len() != sh.Path.Len() {
						t.Fatalf("subword path length %d, shortest %d", got.Path.Len(), sh.Path.Len())
					}
				}
			}
		}
	}
}

func TestColorCodingAgainstBaseline(t *testing.T) {
	d := mustMin(t, "a*ba*")
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Random(9, []byte{'a', 'b'}, 0.25, seed+40)
		for _, k := range []int{1, 2, 3, 4} {
			for x := 0; x < 3; x++ {
				for y := 6; y < 9; y++ {
					got := ColorCoding(g, d, x, y, k, ColorCodingOptions{Seed: seed, FailureProb: 1e-4})
					sh := BaselineShortest(g, d, x, y, nil)
					want := sh.Found && sh.Path.Len() <= k
					if got.Found != want {
						t.Fatalf("seed %d k=%d (%d,%d): colorcoding %v want %v", seed, k, x, y, got.Found, want)
					}
					if got.Found && (got.Path.Len() > k || !VerifyWitness(got, g, d, x, y)) {
						t.Fatal("colorcoding witness invalid")
					}
				}
			}
		}
	}
}

func TestColorCodingEdgeCases(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 'a', 1)
	d := mustMin(t, "a*")
	if res := ColorCoding(g, d, 0, 0, 0, ColorCodingOptions{}); !res.Found || res.Path.Len() != 0 {
		t.Error("x == y with ε should be found at k = 0")
	}
	if res := ColorCoding(g, d, 0, 1, -1, ColorCodingOptions{}); res.Found {
		t.Error("negative k should find nothing")
	}
	if res := ColorCoding(g, d, 0, 1, 1, ColorCodingOptions{}); !res.Found {
		t.Error("single edge at k = 1 should be found")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	algos := []Algorithm{AlgoAuto, AlgoFinite, AlgoSubword, AlgoSummary, AlgoDAG, AlgoBaseline, AlgoWalk, AlgoNaive, AlgoColorCoding, Algorithm(42)}
	for _, a := range algos {
		if a.String() == "" {
			t.Errorf("algorithm %d renders empty", int(a))
		}
	}
}

func TestDispatcherChoices(t *testing.T) {
	cases := []struct {
		pattern string
		cyclic  bool
		want    Algorithm
	}{
		{"ab|ba", true, AlgoFinite},
		{"a*c*", true, AlgoSubword},
		{"a*(bb+|())c*", true, AlgoSummary},
		{"(aa)*", true, AlgoBaseline},
		{"a*(bb+|())c*", false, AlgoDAG},
		{"(aa)*", false, AlgoDAG},
		// Language first: a finite or subword-closed language never asks
		// whether the graph is acyclic.
		{"ab|ba", false, AlgoFinite},
		{"a*c*", false, AlgoSubword},
	}
	cyc := graph.LabeledCycle("ab")
	dag := graph.LayeredDAG(3, 2, 1, []byte{'a'}, 1)
	for _, c := range cases {
		s := mustSolver(t, c.pattern)
		g := cyc
		if !c.cyclic {
			g = dag
		}
		if got := s.ChooseAlgorithm(g); got != c.want {
			t.Errorf("ChooseAlgorithm(%q, cyclic=%v) = %v, want %v", c.pattern, c.cyclic, got, c.want)
		}
	}
}

// TestAcyclicVerdictOnlyWhereRead drives an Engine over a cyclic graph
// through epochs that remove edges — each one drops a "cyclic" verdict,
// so recomputing it costs an O(V+E) pass — and pins who pays: a language
// whose tier the verdict cannot change (subword-closed, finite) leaves
// the verdict unknown forever, through queries, batches and compactions;
// a language that dispatches on it (Ψtr summary, NP baseline) knows it
// again after the first query of every epoch.
func TestAcyclicVerdictOnlyWhereRead(t *testing.T) {
	cases := []struct {
		pattern string
		reads   bool
	}{
		{"a*c*", false},
		{"ab|ba|aab", false},
		{"a*(bb+|())c*", true},
		{"(aa)*", true},
	}
	for _, c := range cases {
		s := mustSolver(t, c.pattern)
		g := graph.RandomRegular(30, []byte{'a', 'b', 'c'}, 3, 9) // cyclic
		e := NewEngine(s, g, EngineConfig{CompactDelta: -1})
		bs := NewBatchSolver(s, g)
		if _, known := g.AcyclicVerdict(); known != c.reads {
			t.Fatalf("%q: verdict known=%v after NewEngine, want %v", c.pattern, known, c.reads)
		}
		for epoch := 0; epoch < 6; epoch++ {
			victim := g.OutEdges(epoch)[0]
			if !g.RemoveEdge(victim.From, victim.Label, victim.To) {
				t.Fatalf("%q: edge %v vanished", c.pattern, victim)
			}
			if _, known := g.AcyclicVerdict(); known {
				t.Fatalf("%q epoch %d: removing an edge must drop the verdict", c.pattern, epoch)
			}
			want := s.Solve(rebuiltOracle(g), 3, 17).Found
			if got := e.Solve(3, 17).Found; got != want {
				t.Fatalf("%q epoch %d: Engine.Solve = %v, rebuilt graph says %v", c.pattern, epoch, got, want)
			}
			if _, known := g.AcyclicVerdict(); known != c.reads {
				t.Fatalf("%q epoch %d: verdict known=%v after the first query, want %v", c.pattern, epoch, known, c.reads)
			}
			e.Exists(5, 17)
			e.BatchSolve([]Pair{{X: 1, Y: 2}, {X: 4, Y: 2}})
			bs.SolveExists([]Pair{{X: 1, Y: 2}})
			s.Warm(g)
			if epoch%2 == 1 {
				e.Compact()
			}
			if _, known := g.AcyclicVerdict(); known != c.reads {
				t.Fatalf("%q epoch %d: verdict known=%v at the end of the epoch, want %v", c.pattern, epoch, known, c.reads)
			}
		}
	}
}
