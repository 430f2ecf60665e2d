package rspq

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
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

// edgeGraph builds an n-vertex graph from edges written "0a1 1b2": each
// word is one edge, from its first digit to its last, labelled by the
// letter between.
func edgeGraph(n int, edges string) *graph.Graph {
	g := graph.New(n)
	for _, e := range strings.Fields(edges) {
		g.AddEdge(int(e[0]-'0'), e[1], int(e[2]-'0'))
	}
	return g
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

// TestFigure4Counterexample replays the paper's Figure 4: an L-labeled
// walk exists for L = a*(bb+|())c*, no simple L-labeled path exists —
// the Solver and every bare tier function, SolvePsitr among them, must
// agree — and loop elimination cannot fix the walk.
func TestFigure4Counterexample(t *testing.T) {
	f := graph.NewFigure4(4)
	c := newCase(t, tier("summary"), "a*(bb+|())c*", f.G, 0)
	if r := checkSurfaces(t, c, []Pair{{f.X0, f.Y2k}}, "Solver", "tiers"); r.walk[0] < 0 || r.found[0] {
		t.Fatalf("Figure 4 must admit an L-labeled walk (length %d) and no simple L-path (found=%v)", r.walk[0], r.found[0])
	}
	if res := Naive(f.G, c.s.Min, f.X0, f.Y2k); res.Found {
		t.Error("naive loop elimination should fail on Figure 4")
	}
}

// TestLoopTrapDiscriminatesNaive: on the LoopTrap family the naive
// heuristic answers NO although a simple a*bba*-labeled path exists.
// a*bba* is not in trC (a^M bb a^M ∈ L, a^M a^M ∉ L), so the dispatcher
// routes it to the baseline, and it and every exact solver find the
// path.
func TestLoopTrapDiscriminatesNaive(t *testing.T) {
	tr := graph.NewLoopTrap(3)
	c := newCase(t, tier("baseline"), "a*bba*", tr.G, 0)
	if Naive(tr.G, c.s.Min, tr.X, tr.Y).Found {
		t.Error("naive should fail on the loop trap (its shortest walk loops)")
	}
	if r := checkSurfaces(t, c, []Pair{{tr.X, tr.Y}}, "Solver", "tiers"); !r.found[0] || c.s.Classification.Tractable {
		t.Errorf("a*bba* tractable=%v, want false; loop-trap path found=%v, want true", c.s.Classification.Tractable, r.found[0])
	}
}

func TestFiniteSolver(t *testing.T) {
	g := edgeGraph(5, "0a1 1b2 0b3 3a2")
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
	g2 := edgeGraph(3, "0a2 0a1 1b2")
	res = Finite(g2, mustMin(t, "a|ab"), 0, 2)
	if !res.Found || res.Path.Len() != 1 {
		t.Errorf("finite solver should prefer the shorter word: %v", res.Path)
	}
	// The witness is BaselineShortest's: at each depth the deepening tries
	// labels, then adjacency, so on aa|ab it reaches 0 -a-> 1 -b-> 3
	// before 0 -a-> 2 -a-> 3, although aa is the lex-first word with a
	// path.
	g3 := edgeGraph(4, "0a1 0a2 1b3 2a3")
	d3 := mustMin(t, "aa|ab")
	res, ref := Finite(g3, d3, 0, 3), BaselineShortest(g3, d3, 0, 3, nil)
	if !res.Found || res.Path.String() != "0 -a-> 1 -b-> 3" || res.Path.String() != ref.Path.String() {
		t.Errorf("Finite %v, BaselineShortest %v; want both 0 -a-> 1 -b-> 3", res.Path, ref.Path)
	}
	// a|aab: the short word has no edge, the long one a simple path on
	// g4 and only a walk through its source on g5.
	g4, g5 := edgeGraph(4, "0a1 1a3 3b2"), edgeGraph(3, "0a1 1a0 0b2")
	d4 := mustMin(t, "a|aab")
	if res := Finite(g4, d4, 0, 2); !res.Found || res.Path.Word() != "aab" {
		t.Errorf("a|aab on g4: %v, want the aab path", res.Path)
	}
	if res := Finite(g5, d4, 0, 2); res.Found {
		t.Errorf("a|aab on g5: %v, but the only aab walk revisits 0", res.Path)
	}
}

// TestFiniteBound holds the finite tier's language-side bound against
// brute force over every word of at most NumStates letters: each
// state's distance is the length of its shortest word to acceptance (-1
// from the dead state), and the depth is the length of L's longest word.
func TestFiniteBound(t *testing.T) {
	for _, pattern := range []string{"()", "a", "ab|ba|aab", "(a|ab)(b|ba)?", "a|bbbb", "(a|b|c){4}", "a?b?c?"} {
		d := mustMin(t, pattern)
		fb := newFiniteBound(d)
		for q := 0; q < d.NumStates; q++ {
			want := int32(-1)
			if w, ok := d.ShortestWordFrom(q); ok {
				want = int32(len(w))
			}
			if got := fb.distAt(0, q); got != want {
				t.Errorf("%q: state %d at distance %d from acceptance, want %d", pattern, q, got, want)
			}
		}
		longest, level := -1, []string{""}
		for n := 0; n <= d.NumStates; n++ {
			var next []string
			for _, w := range level {
				if d.Member(w) {
					longest = n
				}
				for _, l := range d.Alphabet {
					next = append(next, w+string(l))
				}
			}
			level = next
		}
		if fb.depth != longest {
			t.Errorf("%q: depth %d, want the longest word's %d", pattern, fb.depth, longest)
		}
	}
}

// TestDAGSolver holds the DAG tier function to the reference on a
// layered DAG, for the DAG row's languages, and pins that it rejects a
// cycle.
func TestDAGSolver(t *testing.T) {
	checkGraphs(t, languagesOf(tier("dag")), 1, 1, func(int64) *graph.Graph {
		return graph.LayeredDAG(5, 4, 2, []byte{'a', 'b'}, 11)
	}, "tiers")
	if _, ok := DAG(graph.LabeledCycle("ab"), mustMin(t, "(a|b)*a(a|b)*"), 0, 0); ok {
		t.Error("cycle must be rejected by the DAG solver")
	}
}

func TestSubwordClosedDetection(t *testing.T) {
	for pattern, want := range map[string]bool{
		"a*c*": true, "(a|b)*": true, "a*": true, "()": true,
		"a*ba*": false, "ab": false,
		"a*(bb+|())c*": false, // trC but not subword-closed
	} {
		if got := SubwordClosed(mustMin(t, pattern)); got != want {
			t.Errorf("SubwordClosed(%q) = %v, want %v", pattern, got, want)
		}
	}
}

// TestSubwordSolverAgreesWithBaseline holds the subword tier function,
// whose paths are shortest, to the reference on small random graphs,
// for the subword row's languages.
func TestSubwordSolverAgreesWithBaseline(t *testing.T) {
	checkGraphs(t, patternsOf(tier("subword")), 6, 1, func(seed int64) *graph.Graph {
		return graph.Random(10, []byte{'a', 'b', 'c'}, 0.18, seed)
	}, "tiers")
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
	g := edgeGraph(2, "0a1")
	d := mustMin(t, "a*")
	if res := ColorCoding(g, d, 0, 0, 0, ColorCodingOptions{}); !res.Found || res.Path.Len() != 0 {
		t.Error("x == y with ε should be found at k = 0")
	}
	if res := ColorCoding(g, mustMin(t, "a*ba*"), 1, 1, 1, ColorCodingOptions{}); res.Found {
		t.Error("x == y without ε has no simple path")
	}
	if res := ColorCoding(g, d, 0, 1, -1, ColorCodingOptions{}); res.Found {
		t.Error("negative k should find nothing")
	}
	if res := ColorCoding(g, d, 0, 1, 1, ColorCodingOptions{}); !res.Found {
		t.Error("single edge at k = 1 should be found")
	}
}

// TestColorCodingLargeK pins the exact fallback above the colour
// budget (k+1 > 24 colours): a path longer than k is no answer, one
// within k is.
func TestColorCodingLargeK(t *testing.T) {
	g, x, y := graph.LabeledPath(strings.Repeat("a", 40))
	d := mustMin(t, "a*")
	if res := ColorCoding(g, d, x, y, 30, ColorCodingOptions{}); res.Found {
		t.Errorf("k = 30 found a %d-edge path on a 40-edge path", res.Path.Len())
	}
	if res := ColorCoding(g, d, x, y, 40, ColorCodingOptions{}); !res.Found || res.Path.Len() != 40 || !VerifyWitness(res, g, d, x, y) {
		t.Errorf("k = 40 must find the 40-edge path; got %+v", res)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	algos := []Algorithm{AlgoAuto, AlgoFinite, AlgoSubword, AlgoSummary, AlgoDAG, AlgoBaseline, AlgoWalk, AlgoNaive, Algorithm(42)}
	for _, a := range algos {
		if a.String() == "" {
			t.Errorf("algorithm %d renders empty", int(a))
		}
	}
}

// TestDispatcherChoices pins the tier list: every language of every row
// dispatches to the row's tier, on a cyclic and on an acyclic graph —
// the tier is the language's alone.
func TestDispatcherChoices(t *testing.T) {
	cyc, dag := graph.LabeledCycle("ab"), graph.LayeredDAG(3, 2, 1, []byte{'a'}, 1)
	for i := range tiers {
		for _, l := range languagesOf(&tiers[i]) {
			for _, g := range []*graph.Graph{cyc, dag} {
				if got := compiledSolver(t, l.pattern).ChooseAlgorithm(g); got != l.row.algo {
					t.Errorf("ChooseAlgorithm(%q) = %v, want the %s row's %v", l.pattern, got, l.row.name, l.row.algo)
				}
			}
		}
	}
}

// TestNoQueryComputesAcyclicity pins that dispatch reads only the
// language: after an edge removal — which at worst turns a cyclic graph
// acyclic — the first query on every surface, and a Warm, allocates less
// than one TopoOrder would (its indeg and order slices, 16·n bytes), for
// a language of every tier. Both cache tiers are off, so no table export
// allocates either. From the warm-up through the measurements the
// garbage collector is off and one P runs the test, so the warm arena is
// in the pool's only per-P slot when a measured call asks for it: no
// collection can empty the pool, and no call can run on a P whose slot is
// empty and allocate its arena again.
func TestNoQueryComputesAcyclicity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	const n = 100_000
	topoBytes := uint64(16 * n)
	for _, row := range tierRows() {
		pattern := row.pattern
		s := mustSolver(t, pattern)
		g := graph.RandomOutRegular(n, []byte{'a', 'b', 'c'}, 3, 7) // cyclic
		var victims []graph.Edge
		for v := 0; v < 8; v++ {
			victims = append(victims, g.OutEdges(v)[0])
		}
		e := NewEngine(s, g, EngineConfig{TableBytes: -1, ResultBytes: -1, CompactDelta: -1})
		bs := NewBatchSolver(s, g)
		rng := rand.New(rand.NewSource(1))
		pair := func() (int, int) { return rng.Intn(n), rng.Intn(n) }
		surfaces := []struct {
			name string
			call func()
		}{
			{"Engine.Solve", func() { e.Solve(pair()) }},
			{"Engine.Exists", func() { e.Exists(pair()) }},
			{"BatchSolver.SolveExists", func() {
				x, y := pair()
				bs.SolveExists([]Pair{{X: x, Y: y}})
			}},
			{"Solver.Warm", func() { s.Warm(g) }},
		}
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for _, sf := range surfaces { // warm the arena pool
				sf.call()
			}
			for i, sf := range surfaces {
				for round := 0; round < 2; round++ {
					victim := victims[2*i+round]
					if !g.RemoveEdge(victim.From, victim.Label, victim.To) {
						t.Fatalf("%q: edge %v vanished", pattern, victim)
					}
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					sf.call()
					runtime.ReadMemStats(&m1)
					if b := m1.TotalAlloc - m0.TotalAlloc; b >= topoBytes {
						t.Errorf("%q: the first %s after a removal allocated %d B, a TopoOrder's worth (%d B)",
							pattern, sf.name, b, topoBytes)
					}
				}
			}
		}()
	}
}
