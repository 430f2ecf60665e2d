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

// tractablePatterns are the Ψtr-normalizable languages used for
// cross-validation of the summary solver.
var tractablePatterns = []string{
	"a*(bb+|())c*",             // Example 1
	"a(c{2,}|())(a|b)*(ac)?a*", // Example 2
	"a*",
	"a*c*",
	"(a|b)*",
	"a+b+",
	"a*(b|())",
	"[ab]{2,}",
	"a{2,4}b*",
	"ab|b*a",
	"(ab)?[ab]*",
	"a?b?c?",
}

// TestSummaryCrossValidation is the central correctness test of the
// repository: on hundreds of randomized instances the polynomial
// summary solver must agree exactly with the exponential baseline —
// both on the boolean answer and (for found paths) on validity.
func TestSummaryCrossValidation(t *testing.T) {
	for _, pattern := range tractablePatterns {
		s := mustSolver(t, pattern)
		if s.Expr == nil {
			t.Fatalf("%q should normalize to Ψtr", pattern)
		}
		for seed := int64(0); seed < 8; seed++ {
			n := 8 + int(seed)
			p := 0.10 + 0.03*float64(seed%4)
			g := graph.Random(n, []byte{'a', 'b', 'c'}, p, seed*31+7)
			for x := 0; x < n; x += 3 {
				for y := 1; y < n; y += 3 {
					got := SolvePsitr(g, s.Expr, x, y, false)
					want := Baseline(g, s.Min, x, y, nil)
					if got.Found != want.Found {
						t.Fatalf("%q seed=%d n=%d (%d,%d): summary=%v baseline=%v\ngraph:\n%s",
							pattern, seed, n, x, y, got.Found, want.Found, g)
					}
					if !VerifyWitness(got, g, s.Min, x, y) {
						t.Fatalf("%q seed=%d (%d,%d): invalid witness %v", pattern, seed, x, y, got.Path)
					}
				}
			}
		}
	}
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
// against iterative-deepening baseline lengths.
func TestSummaryShortestCrossValidation(t *testing.T) {
	patterns := []string{"a*(bb+|())c*", "a*c*", "a+b+", "(a|b)*"}
	for _, pattern := range patterns {
		s := mustSolver(t, pattern)
		for seed := int64(0); seed < 5; seed++ {
			g := graph.Random(9, []byte{'a', 'b', 'c'}, 0.16, seed*17+3)
			for x := 0; x < 9; x += 2 {
				for y := 1; y < 9; y += 2 {
					got := SolvePsitr(g, s.Expr, x, y, true)
					want := BaselineShortest(g, s.Min, x, y, nil)
					if got.Found != want.Found {
						t.Fatalf("%q seed=%d (%d,%d): summary=%v baseline=%v", pattern, seed, x, y, got.Found, want.Found)
					}
					if got.Found && got.Path.Len() != want.Path.Len() {
						t.Fatalf("%q seed=%d (%d,%d): summary length %d, baseline %d\npath %v vs %v",
							pattern, seed, x, y, got.Path.Len(), want.Path.Len(), got.Path, want.Path)
					}
					if !VerifyWitness(got, g, s.Min, x, y) {
						t.Fatal("invalid shortest witness")
					}
				}
			}
		}
	}
}

// TestSummaryOnDenseGraphs stresses the gap machinery where many
// same-label choices exist.
func TestSummaryOnDenseGraphs(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(12, []byte{'a', 'b', 'c'}, 0.3, seed+100)
		for x := 0; x < 4; x++ {
			for y := 8; y < 12; y++ {
				got := SolvePsitr(g, s.Expr, x, y, false)
				want := Baseline(g, s.Min, x, y, nil)
				if got.Found != want.Found {
					t.Fatalf("seed=%d (%d,%d): summary=%v baseline=%v", seed, x, y, got.Found, want.Found)
				}
			}
		}
	}
}

// TestSummaryExampleOneCases replays the case analysis of the paper's
// Example 1 on hand-built graphs.
func TestSummaryExampleOneCases(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")

	// Case 1: a pure a*c* path exists.
	g1, x1, y1 := graph.LabeledPath("aacc")
	res := SolvePsitr(g1, s.Expr, x1, y1, false)
	if !res.Found || res.Path.Word() != "aacc" {
		t.Fatalf("case 1: %v", res.Path)
	}

	// Case 2: a path with exactly two b's.
	g2, x2, y2 := graph.LabeledPath("abbc")
	res = SolvePsitr(g2, s.Expr, x2, y2, false)
	if !res.Found || res.Path.Word() != "abbc" {
		t.Fatalf("case 2: %v", res.Path)
	}

	// Case 3: a long b-run forces the gap machinery: a b^6 c.
	g3, x3, y3 := graph.LabeledPath("abbbbbbc")
	res = SolvePsitr(g3, s.Expr, x3, y3, false)
	if !res.Found {
		t.Fatal("case 3: long b-run not found")
	}

	// Case 4: single b only — not in the language.
	g4, x4, y4 := graph.LabeledPath("abc")
	res = SolvePsitr(g4, s.Expr, x4, y4, false)
	if res.Found {
		t.Fatalf("case 4: abc ∉ L, got %v", res.Path)
	}
}

// TestSummaryExampleTwoNicePath exercises the Example 2/3 language on a
// graph shaped like Figure 3: an a-prefix, a c-loop region, an (a|b)
// region and an a-tail.
func TestSummaryExampleTwoNicePath(t *testing.T) {
	s := mustSolver(t, "a(c{2,}|())(a|b)*(ac)?a*")
	if s.Expr == nil {
		t.Fatal("Example 2 language must normalize")
	}
	// Build a path spelling a cccc abab ac aa (in the language).
	g, x, y := graph.LabeledPath("accccababacaa")
	res := SolvePsitr(g, s.Expr, x, y, false)
	if !res.Found {
		t.Fatal("Example 2 word path not found")
	}
	if !VerifyWitness(res, g, s.Min, x, y) {
		t.Fatal("invalid witness")
	}
}

// TestSummaryGapDisjointness builds an instance where the two gap
// regions compete for vertices (the Sa/Sb sets of Example 1's
// analysis): correctness requires the acc-ball bookkeeping.
func TestSummaryGapDisjointness(t *testing.T) {
	// Shape: x -a-> m -b-> m2 -b-> m -c-> y would reuse m; the only
	// correct answer uses the disjoint b-pair below.
	g := graph.New(0)
	x := g.AddVertex()
	m := g.AddVertex()
	y := g.AddVertex()
	b1 := g.AddVertex()
	b2 := g.AddVertex()
	g.AddEdge(x, 'a', m)
	g.AddEdge(m, 'b', b1)
	g.AddEdge(b1, 'b', m) // b-loop through m: unusable for a simple path
	g.AddEdge(m, 'c', y)
	g.AddEdge(b1, 'b', b2)
	g.AddEdge(b2, 'c', y)

	s := mustSolver(t, "a*(bb+|())c*")
	d := s.Min
	got := SolvePsitr(g, s.Expr, x, y, false)
	want := Baseline(g, d, x, y, nil)
	if got.Found != want.Found {
		t.Fatalf("summary=%v baseline=%v", got.Found, want.Found)
	}
	if !VerifyWitness(got, g, d, x, y) {
		t.Fatal("invalid witness")
	}
}

// TestSummarySelfQueries checks the x == y corner for every pattern.
func TestSummarySelfQueries(t *testing.T) {
	for _, pattern := range tractablePatterns {
		s := mustSolver(t, pattern)
		g := graph.Random(6, []byte{'a', 'b', 'c'}, 0.3, 5)
		for v := 0; v < 6; v++ {
			got := SolvePsitr(g, s.Expr, v, v, false)
			wantEps := s.Min.Member("")
			if got.Found != wantEps {
				t.Errorf("%q self-query at %d: found=%v, ε∈L=%v", pattern, v, got.Found, wantEps)
			}
		}
	}
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
	cases := []struct {
		pattern string
		want    bool
	}{
		{"(ab)*", true},
		{"a*bc*", true},
		{"a*ba*", false},        // two live a-targets
		{"(aa)*", false},        // two live a-targets (parity)
		{"a*(bb+|())c*", false}, // two live b-targets
	}
	for _, c := range cases {
		if got := LetterSynchronizing(mustMin(t, c.pattern)); got != c.want {
			t.Errorf("LetterSynchronizing(%q) = %v, want %v", c.pattern, got, c.want)
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

// adjacentGapPatterns normalize to Ψtr sequences with adjacent k=0 gap
// terms ([A]*[B]*), with and without an optional word that may be
// skipped between them — the shape whose second gap is entered at the
// first gap's exit.
var adjacentGapPatterns = []string{"a+b+", "a+c?b+", "(a|b)+c+", "a+(b|c)+a", "a+b*c+"}

// checkAgainstBaselineShortest asserts that every query surface — the
// per-query Solver (Solve and Shortest), the BatchSolver and the
// Engine, single and batched, witness and existence-only — agrees with
// the exponential ground truth on all pairs of g, and that every
// witness verifies. It returns the number of pairs checked.
func checkAgainstBaselineShortest(t *testing.T, s *Solver, g *graph.Graph, tag string) int {
	t.Helper()
	n := g.NumVertices()
	var pairs []Pair
	var want []Result
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			pairs = append(pairs, Pair{X: x, Y: y})
			want = append(want, BaselineShortest(g, s.Min, x, y, nil))
		}
	}
	check := func(surface string, i int, got Result, witness bool) {
		t.Helper()
		pq := pairs[i]
		if got.Found != want[i].Found {
			t.Fatalf("%s %s (%d,%d): found=%v, baseline=%v\ngraph:\n%s", tag, surface, pq.X, pq.Y, got.Found, want[i].Found, g)
		}
		if witness && !VerifyWitness(got, g, s.Min, pq.X, pq.Y) {
			t.Fatalf("%s %s (%d,%d): invalid witness %v\ngraph:\n%s", tag, surface, pq.X, pq.Y, got.Path, g)
		}
	}
	bs := NewBatchSolver(s, g)
	e := NewEngine(s, g, EngineConfig{})
	batch, batchExists := bs.Solve(pairs), bs.SolveExists(pairs)
	// The engine's batch runs on a second engine so the first one's
	// single queries are not answered from the result cache it filled.
	engBatch := NewEngine(s, g, EngineConfig{}).BatchSolve(pairs)
	for i, pq := range pairs {
		check("Solver.Solve", i, s.Solve(g, pq.X, pq.Y), true)
		short := s.Shortest(g, pq.X, pq.Y)
		check("Solver.Shortest", i, short, true)
		if short.Found && short.Path.Len() != want[i].Path.Len() {
			t.Fatalf("%s Solver.Shortest (%d,%d): length %d, baseline %d\ngraph:\n%s",
				tag, pq.X, pq.Y, short.Path.Len(), want[i].Path.Len(), g)
		}
		check("BatchSolver.Solve", i, batch[i], true)
		check("BatchSolver.SolveExists", i, Result{Found: batchExists[i]}, false)
		check("Engine.Exists", i, Result{Found: e.Exists(pq.X, pq.Y)}, false)
		check("Engine.Solve", i, e.Solve(pq.X, pq.Y), true)
		check("Engine.BatchSolve", i, engBatch[i], true)
	}
	return len(pairs)
}

// TestSummaryAdjacentGaps is the regression test for the summary-tier
// wrong answer on adjacent [A]*[B]* terms: the second gap's entry is the
// first gap's exit, which the acc-ball test of Definition 4 must not
// reject. The hand-built case is a path 0-a-1-a-2-b-3-b-4 next to a
// disjoint a-cycle (so the graph is cyclic and the summary tier runs);
// the differential runs every surface against BaselineShortest on
// seeded random cyclic graphs.
func TestSummaryAdjacentGaps(t *testing.T) {
	g := graph.New(7)
	for i, l := range []byte("aabb") {
		g.AddEdge(i, l, i+1)
	}
	g.AddEdge(5, 'a', 6)
	g.AddEdge(6, 'a', 5)
	s := mustSolver(t, "a+b+")
	if algo := s.ChooseAlgorithm(g); algo != AlgoSummary {
		t.Fatalf("a+b+ on a cyclic graph dispatches to %v, want summary", algo)
	}
	if res := s.Solve(g, 0, 4); !res.Found || res.Path.Word() != "aabb" {
		t.Fatalf("a+b+ misses the path aabb: %+v", res)
	}
	checkAgainstBaselineShortest(t, s, g, "path+cycle")

	for _, pattern := range adjacentGapPatterns {
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
				checked += checkAgainstBaselineShortest(t, s, g, fmt.Sprintf("%q seed=%d graph=%d", pattern, seed, i))
			}
		}
		if checked < 2000 {
			t.Fatalf("%q: only %d pairs checked on cyclic graphs", pattern, checked)
		}
	}
}

// TestSolverEndToEnd runs the dispatcher across tiers on one graph.
func TestSolverEndToEnd(t *testing.T) {
	g := graph.Random(14, []byte{'a', 'b', 'c'}, 0.15, 77)
	for _, pattern := range []string{"ab|ba", "a*c*", "a*(bb+|())c*", "(aa)*", "a*ba*"} {
		s := mustSolver(t, pattern)
		for x := 0; x < 14; x += 4 {
			for y := 2; y < 14; y += 4 {
				got := s.Solve(g, x, y)
				want := Baseline(g, s.Min, x, y, nil)
				if got.Found != want.Found {
					t.Fatalf("%q (%d,%d): dispatcher=%v baseline=%v (algo %v)",
						pattern, x, y, got.Found, want.Found, s.ChooseAlgorithm(g))
				}
				if !VerifyWitness(got, g, s.Min, x, y) {
					t.Fatal("invalid dispatcher witness")
				}
			}
		}
	}
}

// TestShortestEndToEnd checks Solver.Shortest against the baseline.
func TestShortestEndToEnd(t *testing.T) {
	g := graph.Random(9, []byte{'a', 'b', 'c'}, 0.2, 123)
	for _, pattern := range []string{"ab|ba", "a*c*", "a*(bb+|())c*", "(aa)*"} {
		s := mustSolver(t, pattern)
		for x := 0; x < 9; x += 2 {
			for y := 1; y < 9; y += 2 {
				got := s.Shortest(g, x, y)
				want := BaselineShortest(g, s.Min, x, y, nil)
				if got.Found != want.Found {
					t.Fatalf("%q (%d,%d): %v vs %v", pattern, x, y, got.Found, want.Found)
				}
				if got.Found && got.Path.Len() != want.Path.Len() {
					t.Fatalf("%q (%d,%d): len %d vs %d", pattern, x, y, got.Path.Len(), want.Path.Len())
				}
			}
		}
	}
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
