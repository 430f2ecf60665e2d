package rspq

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/catalog"
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

// TestDAGWalkFirst pins Theorem 8 on the evaluator: on a DAG every walk
// is simple, so no tier of its own is needed. For every catalog language
// on layered DAGs, Solve and Shortest agree with the exponential ground
// truth (Baseline, BaselineShortest) on existence and are as short as
// BaselineShortest's path, and a traced uncached Engine runs the
// language's own tier — never dag — with no search node expanded on the
// walk-first tiers (the finite tier's deepening is its search).
func TestDAGWalkFirst(t *testing.T) {
	found := 0
	for _, entry := range catalog.All() {
		s := mustSolver(t, entry.Pattern)
		tier := s.ChooseAlgorithm(nil)
		for seed := int64(1); seed <= 3; seed++ {
			g := graph.LayeredDAG(20, 20, 3, []byte("abc"), seed)
			e := NewEngine(s, g, EngineConfig{TableBytes: -1, ResultBytes: -1})
			for i := 0; i < 60; i++ {
				lx := i % 10
				x := lx*20 + 7*i%20
				y := (lx+1+3*i%(19-lx))*20 + (11*i+3)%20
				want, wantShort := Baseline(g, s.Min, x, y, nil), BaselineShortest(g, s.Min, x, y, nil)
				if want.Found != wantShort.Found {
					t.Fatalf("%q seed=%d (%d,%d): Baseline found=%v, BaselineShortest found=%v", entry.Pattern, seed, x, y, want.Found, wantShort.Found)
				}
				traced, tr := e.SolveTraced(x, y)
				for _, got := range []struct {
					who string
					res Result
				}{{"Solve", s.Solve(g, x, y)}, {"Shortest", s.Shortest(g, x, y)}, {"Engine.SolveTraced", traced}} {
					if got.res.Found != want.Found || !VerifyWitness(got.res, g, s.Min, x, y) ||
						got.res.Found && got.res.Path.Len() != wantShort.Path.Len() {
						t.Fatalf("%q seed=%d (%d,%d): %s = %v, BaselineShortest %v", entry.Pattern, seed, x, y, got.who, got.res.Path, wantShort.Path)
					}
				}
				if tr.Tier != tier.String() || tier != AlgoFinite && tr.SearchNodes != 0 {
					t.Fatalf("%q seed=%d (%d,%d): trace tier %s with %d search nodes; want %v with none", entry.Pattern, seed, x, y, tr.Tier, tr.SearchNodes, tier)
				}
				if want.Found {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no catalog pair is found on the layered DAGs; the walk-first answers went untested")
	}
	t.Logf("%d found pairs", found)
}

// vlgWalkFirstPatterns returns the paper's letter-synchronizing
// languages, (ab)* and a*bc*, followed by the first count distinct
// languages of randomRegex(4) (seed 1) that are letter-synchronizing,
// infinite and not subword-closed: the languages Theorem 5 answers by
// loop removal and no language-first tier does.
func vlgWalkFirstPatterns(t *testing.T, count int) []string {
	patterns := []string{"(ab)*", "a*bc*"}
	var kept []*automaton.DFA
	rng := rand.New(rand.NewSource(1))
	for len(kept) < count {
		pattern := randomRegex(rng, 4)
		s := mustSolver(t, pattern)
		if s.Classification.Finite || s.SubwordClosed || !LetterSynchronizing(s.Min) ||
			slices.ContainsFunc(kept, func(d *automaton.DFA) bool { return automaton.Equivalent(d, s.Min) }) {
			continue
		}
		kept = append(kept, s.Min)
		patterns = append(patterns, pattern)
	}
	return patterns
}

// randomRegex draws a regex over {a, b, c} of depth at most depth from
// star, union and concatenation, taking a leaf with probability ¼ at
// each level.
func randomRegex(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(4) == 0 {
		return string("abc"[rng.Intn(3)])
	}
	switch rng.Intn(3) {
	case 0:
		return "(" + randomRegex(rng, depth-1) + ")*"
	case 1:
		return "(" + randomRegex(rng, depth-1) + "|" + randomRegex(rng, depth-1) + ")"
	default:
		return randomRegex(rng, depth-1) + randomRegex(rng, depth-1)
	}
}

// TestVlgWalkFirst pins Theorem 5 on the evaluator: for a
// letter-synchronizing language on a vl-graph's db-encoding, the state
// after entering a vertex is fixed by the vertex, so removing the loops
// of the shortest walk keeps it in L — unless the walk revisits its
// source, which the run left in the start state. A traced uncached
// Engine must answer as the baseline, with no search node expanded on
// every pair whose shortest walk does not revisit its source; some
// pairs that revisit it must be searched.
func TestVlgWalkFirst(t *testing.T) {
	abc := []byte("abc")
	searched := 0
	for _, pattern := range vlgWalkFirstPatterns(t, 30) {
		s := mustSolver(t, pattern)
		for seed := int64(0); seed < 4; seed++ {
			vg := graph.RandomVGraph(20, abc, 0.15, seed)
			db := vg.DBGraph()
			e := NewEngine(s, db, EngineConfig{TableBytes: -1, ResultBytes: -1})
			for x := 0; x < 20; x += 3 {
				for y := 1; y < 20; y += 4 {
					got, tr := e.SolveTraced(x, y)
					if want := Baseline(db, s.Min, x, y, nil); got.Found != want.Found || !VerifyWitness(got, db, s.Min, x, y) {
						t.Fatalf("%q seed=%d (%d,%d): Engine %v, Baseline found=%v", pattern, seed, x, y, got.Path, want.Found)
					}
					walk := ShortestWalk(db, s.Min, x, y)
					if walk != nil && slices.Contains(walk.Vertices[1:], x) {
						searched += min(tr.SearchNodes, 1)
						continue
					}
					if tr.SearchNodes != 0 {
						t.Fatalf("%q seed=%d (%d,%d): walk %v does not revisit its source, yet %d search nodes", pattern, seed, x, y, walk, tr.SearchNodes)
					}
				}
			}
		}
	}
	if searched == 0 {
		t.Fatal("no shortest walk revisits its source and is searched; the search fallback went untested")
	}
	t.Logf("%d pairs searched", searched)
}
