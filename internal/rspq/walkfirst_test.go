package rspq

import (
	"testing"

	"repro/internal/graph"
)

// walkFirstPatterns are the languages of TestWalkFirst: four NP-complete
// ones (contains-b, a*ba*, loop-trap, even-a) and the paper's two
// summary-tier examples.
var walkFirstPatterns = []string{
	"(a|b)*b(a|b)*",
	"a*ba*",
	"a*bba*",
	"(aa)*",
	"a*(bb+|())c*",             // Example 1
	"a(c{2,}|())(a|b)*(ac)?a*", // Example 2
}

// walkFirstPairs are the probe pairs x = 37i mod n, y = (91i+5) mod n,
// i < 40.
func walkFirstPairs(n int) []Pair {
	pairs := make([]Pair, 40)
	for i := range pairs {
		pairs[i] = Pair{X: 37 * i % n, Y: (91*i + 5) % n}
	}
	return pairs
}

// TestWalkFirst pins that the summary and baseline tiers answer from
// the shortest walk whenever it decides the query. On the probe graphs,
// where exact search can take seconds, a pair whose shortest walk is
// simple must come back from Solve, Shortest and a traced uncached
// Engine with a witness exactly as long as the walk and no search node
// expanded, and a pair with no walk as not found, again with none. Pairs
// whose walk repeats a vertex are searched; on n = 60 copies of the
// graphs they are held against the exponential ground truth, and some
// must exist, or the search fallback went untested.
func TestWalkFirst(t *testing.T) {
	ab, abc := []byte("ab"), []byte("abc")
	probe := map[string]*graph.Graph{
		"random":  graph.Random(400, ab, 0.006, 11),
		"regular": graph.RandomRegular(400, abc, 3, 7),
	}
	var decided [2]int // pairs with no walk, and with a simple one
	for _, pattern := range walkFirstPatterns {
		s := mustSolver(t, pattern)
		for name, g := range probe {
			if tier := s.ChooseAlgorithm(g); tier != AlgoSummary && tier != AlgoBaseline {
				t.Fatalf("%q on %s: tier %v; the probe is meant for the searching tiers", pattern, name, tier)
			}
			e := NewEngine(s, g, EngineConfig{TableBytes: -1, ResultBytes: -1})
			for _, pq := range walkFirstPairs(g.NumVertices()) {
				x, y := pq.X, pq.Y
				walk := ShortestWalk(g, s.Min, x, y)
				if walk != nil && !walk.IsSimple() {
					continue // searched: held against the baseline below
				}
				if walk == nil {
					decided[0]++
				} else {
					decided[1]++
				}
				traced, tr := e.SolveTraced(x, y)
				for _, got := range []struct {
					who string
					res Result
				}{{"Solve", s.Solve(g, x, y)}, {"Shortest", s.Shortest(g, x, y)}, {"Engine.SolveTraced", traced}} {
					if got.res.Found != (walk != nil) || !VerifyWitness(got.res, g, s.Min, x, y) {
						t.Fatalf("%q on %s (%d,%d): %s = %v, shortest walk %v", pattern, name, x, y, got.who, got.res.Path, walk)
					}
					if walk != nil && got.res.Path.Len() != walk.Len() {
						t.Fatalf("%q on %s (%d,%d): %s length %d, the simple shortest walk's %d", pattern, name, x, y, got.who, got.res.Path.Len(), walk.Len())
					}
				}
				if tr.SearchNodes != 0 {
					t.Fatalf("%q on %s (%d,%d): the walk decided the pair, yet %d search nodes", pattern, name, x, y, tr.SearchNodes)
				}
			}
		}
	}

	if decided[0] == 0 || decided[1] == 0 {
		t.Fatalf("%d probe pairs without a walk and %d with a simple one; both kinds must occur", decided[0], decided[1])
	}
	t.Logf("probe pairs: %d without a walk, %d with a simple one", decided[0], decided[1])

	// The searched pairs, on copies small enough for the ground truth.
	small := map[string]*graph.Graph{
		"random":  graph.Random(60, ab, 0.04, 11),
		"regular": graph.RandomRegular(60, abc, 3, 7),
	}
	for _, pattern := range []string{"a*bba*", "(aa)*"} {
		s := mustSolver(t, pattern)
		searched := 0
		for name, g := range small {
			e := NewEngine(s, g, EngineConfig{TableBytes: -1, ResultBytes: -1})
			n := g.NumVertices()
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					walk := ShortestWalk(g, s.Min, x, y)
					if walk == nil || walk.IsSimple() {
						continue
					}
					searched++
					want := BaselineShortest(g, s.Min, x, y, nil)
					solved, short := s.Solve(g, x, y), s.Shortest(g, x, y)
					traced, tr := e.SolveTraced(x, y)
					for _, got := range []struct {
						who string
						res Result
					}{{"Solve", solved}, {"Shortest", short}, {"Engine.SolveTraced", traced}} {
						if got.res.Found != want.Found || !VerifyWitness(got.res, g, s.Min, x, y) {
							t.Fatalf("%q on %s (%d,%d): %s = %v, BaselineShortest %v (walk %v)", pattern, name, x, y, got.who, got.res.Path, want.Path, walk)
						}
					}
					if short.Found && short.Path.Len() != want.Path.Len() {
						t.Fatalf("%q on %s (%d,%d): Shortest length %d, BaselineShortest %d", pattern, name, x, y, short.Path.Len(), want.Path.Len())
					}
					if loopFree(s.Min, walk) == nil && tr.SearchNodes == 0 {
						t.Fatalf("%q on %s (%d,%d): the walk left the pair open, yet no search node was counted", pattern, name, x, y)
					}
				}
			}
		}
		if searched == 0 {
			t.Fatalf("%q: no pair's shortest walk repeats a vertex; the search fallback went untested", pattern)
		}
		t.Logf("%q: %d pairs searched", pattern, searched)
	}
}
