package rspq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// This file pins the sweep (sweep.go) against the textbook oracle of
// sweep_oracle_test.go. Found bits, existence bits and BFS distances must
// be bit-identical to the oracle's across every tier, lane width and
// pre/post-mutation epoch; witnesses are verified rather than compared
// (TestWitnessAgreement compares them).

// equivCase is one algorithm tier of the equivalence suites: a pattern
// that dispatches to it and a generator of graphs it runs on.
type equivCase struct {
	name    string
	pattern string
	gen     func(seed int64) *graph.Graph
}

func equivCases() []equivCase {
	return []equivCase{
		{"subword", "a*c*", func(seed int64) *graph.Graph {
			return graph.Random(22, []byte{'a', 'b', 'c'}, 0.12, seed)
		}},
		{"summary", "a*(bb+|())c*", func(seed int64) *graph.Graph {
			return graph.Random(20, []byte{'a', 'b', 'c'}, 0.12, seed+100)
		}},
		{"baseline", "a*bba*", func(seed int64) *graph.Graph {
			return graph.Random(20, []byte{'a', 'b'}, 0.10, seed+200)
		}},
		{"dag", "(a|b)*a(a|b)*", func(seed int64) *graph.Graph {
			return graph.LayeredDAG(5, 4, 2, []byte{'a', 'b'}, seed+300)
		}},
		{"finite", "ab|ba|aab", func(seed int64) *graph.Graph {
			return graph.Random(18, []byte{'a', 'b'}, 0.10, seed+400)
		}},
	}
}

// solver compiles the tier's pattern.
func (tc *equivCase) solver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(tc.pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", tc.pattern, err)
	}
	return s
}

// pairSet builds the query set: a dense sweep over a vertex sample plus
// the edge cases — x==y everywhere, the isolated vertex in both roles,
// and out-of-range ids.
func pairSet(g *graph.Graph, isolated int, rng *rand.Rand) []Pair {
	n := g.NumVertices()
	var pairs []Pair
	for x := 0; x < n; x += 1 + n/12 {
		for y := 0; y < n; y += 1 + n/12 {
			pairs = append(pairs, Pair{X: x, Y: y})
		}
	}
	for v := 0; v < n; v += 1 + n/6 {
		pairs = append(pairs, Pair{X: v, Y: v}) // x == y
	}
	pairs = append(pairs,
		Pair{X: isolated, Y: rng.Intn(n)}, Pair{X: rng.Intn(n), Y: isolated},
		Pair{X: isolated, Y: isolated},
		Pair{X: -1, Y: 0}, Pair{X: 0, Y: n + 3}, // out of range
	)
	return pairs
}

// checkAnswers answers every pair — per query, batched, existence-only,
// and through an Engine — and compares to the oracle's Found bits,
// verifying every witness.
func checkAnswers(t *testing.T, s *Solver, g *graph.Graph, pairs []Pair, want []bool, ctx string) {
	t.Helper()
	for i, pq := range pairs {
		got := s.Solve(g, pq.X, pq.Y)
		if got.Found != want[i] {
			t.Fatalf("%s Solve(%d,%d): found=%v, oracle says %v", ctx, pq.X, pq.Y, got.Found, want[i])
		}
		if !VerifyWitness(got, g, s.Min, pq.X, pq.Y) {
			t.Fatalf("%s Solve(%d,%d): invalid witness %v", ctx, pq.X, pq.Y, got.Path)
		}
	}
	for i, got := range NewBatchSolver(s, g).Solve(pairs) {
		if got.Found != want[i] {
			t.Fatalf("%s batch pair %d (%d,%d): found=%v, want %v", ctx, i, pairs[i].X, pairs[i].Y, got.Found, want[i])
		}
		if !VerifyWitness(got, g, s.Min, pairs[i].X, pairs[i].Y) {
			t.Fatalf("%s batch pair %d: invalid witness", ctx, i)
		}
	}
	for i, got := range NewBatchSolver(s, g).SolveExists(pairs) {
		if got != want[i] {
			t.Fatalf("%s exists pair %d (%d,%d): %v, want %v", ctx, i, pairs[i].X, pairs[i].Y, got, want[i])
		}
	}
	eng := NewEngine(s, g, EngineConfig{})
	for i, pq := range pairs {
		if got := eng.Solve(pq.X, pq.Y); got.Found != want[i] {
			t.Fatalf("%s engine Solve(%d,%d): found=%v, want %v", ctx, pq.X, pq.Y, got.Found, want[i])
		}
	}
}

// TestDirectionBitEquivalence is the randomized kernel-equivalence
// suite: every tier, before and after a mutation epoch, against the
// oracle's answers.
func TestDirectionBitEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(seed*17 + 3))
				g := tc.gen(seed)
				isolated := g.AddVertex()
				pairs := pairSet(g, isolated, rng)
				led := newLedger(g)

				check := func() {
					want := oracleAnswers(tc.solver(t), led, pairs)
					checkAnswers(t, tc.solver(t), g, pairs, want, tc.name)
				}
				check()

				// One mutation epoch (alphabet-stable edge flips), then
				// require equivalence again through the overlay.
				labels := g.Freeze().Labels()
				for i := 0; i < 6; i++ {
					u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
					l := labels[rng.Intn(len(labels))]
					if tc.name == "dag" && u >= v {
						u, v = v, u+1
						if v >= g.NumVertices() {
							continue
						}
					}
					led.flip(u, l, v)
				}
				check()
			}
		})
	}
}

// TestKernelSetAndDistEquality compares the sweep's raw outputs — the
// co-reachability set, the BFS distance array and the walks read off it —
// with the oracle's, not just the query answers built on them: distances
// must be exact (BaselineShortest uses them as admissible lower bounds),
// and the closure must be identical id for id — on the frozen base and on
// an overlay view. The rows cover one lane and the wide DFAs: 67 states
// (two lanes), 131 (three), and (a{65})*, whose cycle crosses from lane 1
// back to lane 0.
func TestKernelSetAndDistEquality(t *testing.T) {
	for _, row := range []struct {
		pattern string
		states  int
		seeds   int64
	}{
		{"a*(bb+|())c*", 0, 3},
		{"(a*b*){33}", 67, 2},
		{"(a*b*){65}", 131, 1},
		{"(a{65})*", 65, 2},
	} {
		s, err := NewSolver(row.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if row.states > 0 && s.Min.NumStates != row.states {
			t.Fatalf("%s: %d states, want %d", row.pattern, s.Min.NumStates, row.states)
		}
		arcs, accept := dfaOracle(s.Min)
		for seed := int64(0); seed < row.seeds; seed++ {
			g := graph.Random(26, []byte{'a', 'b', 'c'}, 0.14, seed+50)
			rng := rand.New(rand.NewSource(seed + 60))
			l := newLedger(g)
			g.Freeze()
			// Pass-through first, then an overlay reached through three
			// mutate→pin steps.
			for _, overlay := range []bool{false, true} {
				if overlay {
					mutateInSteps(l, rng, 3, 2, false)
				}
				s.Warm(g)
				if g.PinView().Overlay() != overlay {
					t.Fatalf("view overlay = %v, want %v", !overlay, overlay)
				}
				for y := 0; y < g.NumVertices(); y += 5 {
					want := textbookSweep(l, s.Min.NumStates, arcs, accept, y)
					ctx := fmt.Sprintf("%s overlay=%v y=%d", row.pattern, overlay, y)
					a := getArena()
					p := makeProduct(g.PinView(), s.Min, a)
					p.sweep(y, a, false, nil)
					checkSweepAgainstOracle(t, g, p.m, a, nil, y, want, ctx)
					checkSweepContracts(t, a, ctx+" (mark-only)")
					p.distToGoal(y, a)
					checkSweepAgainstOracle(t, g, p.m, a, &p, y, want, ctx)
					checkSweepContracts(t, a, ctx)
					a.release()
				}
			}
		}
	}
}

// TestRoundAccountingSplit pins the round accounting: ExchangeRounds
// counts exactly the rounds the sweeps ran, as their traces record them,
// and BitParallelHits counts the sweeps.
func TestRoundAccountingSplit(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(40, []byte{'a', 'b', 'c'}, 0.1, 5)
	eng := NewEngine(s, g, EngineConfig{})
	traced := 0
	for x := 0; x < 40; x += 5 {
		for _, y := range []int{(x + 7) % 40, (x + 13) % 40} {
			_, tr := eng.SolveTraced(x, y)
			traced += len(tr.Rounds)
		}
	}
	st := eng.Stats()
	if traced == 0 || st.ExchangeRounds != int64(traced) {
		t.Fatalf("ExchangeRounds = %d, traced rounds = %d", st.ExchangeRounds, traced)
	}
	if st.BitParallelHits == 0 {
		t.Fatalf("the misses ran sweeps, but none was counted: %+v", st)
	}
}
