package rspq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/psitr"
)

// tractableRows are the answer rows of the tractable tiers.
func tractableRows() []*hTier { return rowsOn(AlgoFinite, AlgoSubword, AlgoSummary) }

// TestSummaryCrossValidation is the central correctness test of the
// repository: on randomized instances the polynomial summary solver —
// and every other bare tier function — must agree exactly with the
// reference on every language of the tractable tiers, each of which
// normalizes to Ψtr (Theorem 4), with valid witnesses.
func TestSummaryCrossValidation(t *testing.T) {
	for _, l := range languagesOf(tractableRows()...) {
		// The wide row's 66 gap terms are past what a forced summary search ends on.
		if s := compiledSolver(t, l.pattern); s.Expr == nil || l.row.name != "wide" && !summarizable(s) {
			t.Fatalf("%q should normalize to Ψtr", l.pattern)
		}
	}
	checkGraphs(t, languagesOf(tractableRows()...), 8, 3, func(seed int64) *graph.Graph {
		return graph.Random(8+int(seed), []byte{'a', 'b', 'c'}, 0.10+0.03*float64(seed%4), seed*31+7)
	}, "tiers")
}

// TestSummaryPlansDieWithSolver pins that a Solver's Ψtr plans live
// exactly as long as the Solver: Compile+Solve cycles on the summary
// tier retain nothing once their solvers are dropped. A process-wide
// plan memo keyed by sequence retained ~1.7 KB per cycle (3.4 MB here).
func TestSummaryPlansDieWithSolver(t *testing.T) {
	g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 5)
	g.Freeze()
	cycle := func(i int) {
		s := mustSolver(t, "a*(bb+|())c*") // Example 1
		if algo := s.ChooseAlgorithm(g); algo != AlgoSummary {
			t.Fatalf("Example 1 on a cyclic graph dispatches to %v, want summary", algo)
		}
		s.Solve(g, i%400, (i*7+3)%400)
	}
	for i := 0; i < 50; i++ { // warm the pools
		cycle(i)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 2000; i++ {
		cycle(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("heap growth after 2000 cycles: %d B", grew)
	if grew > 256<<10 {
		t.Fatalf("2000 Compile+Solve cycles retained %d B of heap; the bound is 256 KiB", grew)
	}
}

// TestSummaryShortestCrossValidation checks the shortest-path variant
// (among the bare tier functions) against iterative-deepening baseline
// lengths, for every language of the subword and summary tiers.
func TestSummaryShortestCrossValidation(t *testing.T) {
	checkGraphs(t, languagesOf(rowsOn(AlgoSubword, AlgoSummary)...), 5, 2, func(seed int64) *graph.Graph {
		return graph.Random(9, []byte{'a', 'b', 'c'}, 0.16, seed*17+3)
	}, "tiers")
}

// TestSummaryOnDenseGraphs stresses the gap machinery where many
// same-label choices exist, for the summary tier's languages.
func TestSummaryOnDenseGraphs(t *testing.T) {
	checkGraphs(t, patternsOf(rowsOn(AlgoSummary)...), 4, 3, func(seed int64) *graph.Graph {
		return graph.Random(12, []byte{'a', 'b', 'c'}, 0.3, seed+100)
	}, "tiers")
}

// TestSummaryExampleOneCases replays the case analysis of the paper's
// Example 1 on labeled paths: a pure a*c* path, exactly two b's, a long
// b-run that forces the gap machinery, and a single b, which is not in
// the language.
func TestSummaryExampleOneCases(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")
	for _, word := range []string{"aacc", "abbc", "abbbbbbc", "abc"} {
		g, x, y := graph.LabeledPath(word)
		res := SolvePsitr(g, s.Expr, x, y, false)
		if want := word != "abc"; res.Found != want || want && res.Path.Word() != word {
			t.Errorf("%q: found=%v path %v; want found=%v", word, res.Found, res.Path, want)
		}
	}
}

// TestSummaryExampleTwoNicePath exercises the Example 2/3 language on a
// graph shaped like Figure 3: an a-prefix, a c-loop region, an (a|b)
// region and an a-tail.
func TestSummaryExampleTwoNicePath(t *testing.T) {
	g, x, y := graph.LabeledPath("accccababacaa") // a cccc abab ac aa, in the language
	c := newCase(t, tier("summary"), "a(c{2,}|())(a|b)*(ac)?a*", g, 0)
	if r := checkSurfaces(t, c, []Pair{{x, y}}, "tiers"); !r.found[0] {
		t.Fatal("Example 2 word path not found")
	}
}

// TestSummaryGapDisjointness builds an instance where the two gap
// regions compete for vertices (the Sa/Sb sets of Example 1's
// analysis): correctness requires the acc-ball bookkeeping.
func TestSummaryGapDisjointness(t *testing.T) {
	// Shape: x=0 -a-> m=1 -b-> 3 -b-> m -c-> y=2 would reuse m (the
	// b-loop through m is unusable for a simple path); the only correct
	// answer uses the disjoint b-pair 1 -b-> 3 -b-> 4 -c-> 2.
	g := edgeGraph(5, "0a1 1b3 3b1 1c2 3b4 4c2")
	c := newCase(t, tier("summary"), "a*(bb+|())c*", g, 0)
	checkSurfaces(t, c, c.pairs(1), "Solver", "tiers")
}

// TestSummarySelfQueries checks every pair of a small graph, the x == y
// corner among them, for every language of the tractable tiers.
func TestSummarySelfQueries(t *testing.T) {
	checkGraphs(t, languagesOf(tractableRows()...), 1, 1, func(int64) *graph.Graph {
		return graph.Random(6, []byte{'a', 'b', 'c'}, 0.3, 5)
	}, "tiers")
}

// TestVlgSolveCrossValidation checks SolveVlg against the baseline on
// the db-encodings, for the paper's flagship vlg languages.
func TestVlgSolveCrossValidation(t *testing.T) {
	patterns := []string{"(ab)*", "a*bc*", "a*(bb+|())c*", "ab|ba", "(aa)*"}
	for _, pattern := range patterns {
		s := mustSolver(t, pattern)
		for seed := int64(0); seed < 6; seed++ {
			vg := graph.RandomVGraph(9, []byte{'a', 'b', 'c'}, 0.22, seed*13+1)
			db := vg.DBGraph()
			for x := 0; x < 9; x += 2 {
				for y := 1; y < 9; y += 2 {
					got := s.SolveVlg(vg, x, y)
					want := Baseline(db, s.Min, x, y, nil)
					if got.Found != want.Found {
						t.Fatalf("%q seed=%d (%d,%d): vlg=%v baseline=%v", pattern, seed, x, y, got.Found, want.Found)
					}
					if !VerifyWitness(got, db, s.Min, x, y) {
						t.Fatal("invalid vlg witness")
					}
				}
			}
		}
	}
}

func TestLetterSynchronizing(t *testing.T) {
	for pattern, want := range map[string]bool{
		"(ab)*": true, "a*bc*": true,
		"a*ba*":        false, // two live a-targets
		"(aa)*":        false, // two live a-targets (parity)
		"a*(bb+|())c*": false, // two live b-targets
	} {
		if got := LetterSynchronizing(mustMin(t, pattern)); got != want {
			t.Errorf("LetterSynchronizing(%q) = %v, want %v", pattern, got, want)
		}
	}
}

// TestVlgPolynomialExample replays the paper's §4.1 claim: (ab)* is
// easy on vl-graphs. Construct an alternating-label vl-path and query.
func TestVlgPolynomialExample(t *testing.T) {
	labels := []byte{'x', 'a', 'b', 'a', 'b'}
	vg := graph.NewVGraph(labels)
	for i := 0; i+1 < len(labels); i++ {
		vg.AddEdge(i, i+1)
	}
	s := mustSolver(t, "(ab)*")
	res := s.SolveVlg(vg, 0, 4)
	if !res.Found || res.Path.Word() != "abab" {
		t.Fatalf("vlg (ab)* query failed: %v", res.Path)
	}
}

// TestSummaryAdjacentGaps is the regression test for the summary-tier
// wrong answer on adjacent [A]*[B]* terms: the second gap's entry is the
// first gap's exit, which the acc-ball test of Definition 4 must not
// reject. The hand-built case is a path 0-a-1-a-2-b-3-b-4 next to a
// disjoint a-cycle (so the graph is cyclic and the summary tier runs);
// the differential runs every surface against BaselineShortest on
// seeded random cyclic graphs.
func TestSummaryAdjacentGaps(t *testing.T) {
	g := edgeGraph(7, "0a1 1a2 2b3 3b4 5a6 6a5")
	s := mustSolver(t, "a+b+")
	if algo := s.ChooseAlgorithm(g); algo != AlgoSummary {
		t.Fatalf("a+b+ on a cyclic graph dispatches to %v, want summary", algo)
	}
	if res := s.Solve(g, 0, 4); !res.Found || res.Path.Word() != "aabb" {
		t.Fatalf("a+b+ misses the path aabb: %+v", res)
	}
	hc := newCase(t, tier("summary-adjacent-gaps"), "a+b+", g, 0)
	checkSurfaces(t, hc, hc.pairs(1), "Solver", "BatchSolver", "Engine/kept")

	// The row's languages normalize to Ψtr sequences with adjacent k=0 gap
	// terms ([A]*[B]*), with and without an optional word that may be
	// skipped between them: the second gap is entered at the first's exit.
	for _, l := range languagesOf(tier("summary-adjacent-gaps")) {
		pattern := l.pattern
		s := mustSolver(t, pattern)
		if s.Expr == nil || !s.Classification.Tractable || s.SubwordClosed {
			t.Fatalf("%q must be a summary-tier language", pattern)
		}
		checked := 0
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				n := 6 + rng.Intn(6)
				g := graph.Random(n, []byte{'a', 'b', 'c'}, 0.12+0.2*rng.Float64(), rng.Int63())
				if g.IsAcyclic() {
					continue // the DAG tier would answer, not the summary solver
				}
				hc := newCase(t, tier("summary-adjacent-gaps"), pattern, g, int64(i))
				checked += len(checkSurfaces(t, hc, hc.pairs(1), "Solver", "BatchSolver", "Engine/kept").pairs)
			}
		}
		if checked < 2000 {
			t.Fatalf("%q: only %d pairs checked on cyclic graphs", pattern, checked)
		}
	}
}

// TestSolverEndToEnd runs the dispatcher across tiers on one graph, for
// every language of every answer row.
func TestSolverEndToEnd(t *testing.T) {
	checkGraphs(t, languagesOf(answerRows()...), 1, 4, func(int64) *graph.Graph {
		return graph.Random(14, []byte{'a', 'b', 'c'}, 0.15, 77)
	}, "Solver")
}

// TestShortestEndToEnd checks Solver.Shortest against the baseline, for
// every language of every answer row.
func TestShortestEndToEnd(t *testing.T) {
	checkGraphs(t, languagesOf(answerRows()...), 1, 2, func(int64) *graph.Graph {
		return graph.Random(9, []byte{'a', 'b', 'c'}, 0.2, 123)
	}, "Solver")
}

func ExampleSolver() {
	g := graph.New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	s, _ := NewSolver("a*(bb+|())c*")
	res := s.Solve(g, 0, 3)
	fmt.Println(res.Found, res.Path.Word())
	// Output: true abb
}

// summaryWitnessDigest is the SHA-256 of TestSummaryWitnessDigest's
// corpus answers. It pins the skeleton search's exploration order: a
// search that tries its alternatives in another order still finds
// valid witnesses, but not these.
const summaryWitnessDigest = "367e281102954f381bd63627983082db6c4847baaa8b51b148122e095caf49af"

// TestSummaryWitnessDigest pins the exact witness the summary search
// returns, in both modes, on random Ψtr expressions over random graphs.
// The cross-validation suites accept any valid witness; this one fails
// when a refactor changes which of them the search finds first.
func TestSummaryWitnessDigest(t *testing.T) {
	h := sha256.New()
	found := 0
	for seed := int64(0); seed < 30; seed++ {
		e := psitr.RandomExpr(rand.New(rand.NewSource(seed)), []byte("abc"), 3, 4)
		g := graph.Random(24, []byte("abc"), 0.12, seed+100)
		for x := 0; x < 24; x += 3 {
			for y := 1; y < 24; y += 5 {
				for _, shortest := range []bool{false, true} {
					r := SolvePsitr(g, e, x, y, shortest)
					if r.Found {
						found++
					}
					fmt.Fprintf(h, "%s %d %d %v %v %s\n", e, x, y, shortest, r.Found, r.Path)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != summaryWitnessDigest {
		t.Fatalf("witness digest %s (%d of 2400 found), want %s", got, found, summaryWitnessDigest)
	}
}
