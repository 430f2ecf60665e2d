package rspq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// This file pins the sweep with links (sweep.go) against the textbook
// oracle of sweep_oracle_test.go: it must produce bit-identical distance
// arrays, every successor link must be a valid step one level closer to
// the goal, and the walks read off the links must be genuine shortest
// L-labeled walks — validated label by label against the graph and the
// DFA (equally short links may differ from the oracle's, so links are
// validated, never compared). The sweep covers every tier's pattern
// and pre/post-mutation overlay views.

// checkWalkBitValid validates one reconstructed walk label by label:
// every step must be a live edge of g carrying the recorded label, the
// DFA must step through the word from its start into an accepting
// state, the walk must start at x, end at the target, and its length
// must equal the kernel's distance — i.e. it must be shortest, not
// merely valid.
func checkWalkBitValid(t *testing.T, s *Solver, g *graph.Graph, walk *graph.Path, x, y int, wantLen int32) {
	t.Helper()
	if walk == nil {
		t.Fatalf("walk(%d,%d): nil, but distance %d says reachable", x, y, wantLen)
	}
	if len(walk.Vertices) != len(walk.Labels)+1 {
		t.Fatalf("walk(%d,%d): %d vertices, %d labels", x, y, len(walk.Vertices), len(walk.Labels))
	}
	if walk.Source() != x || walk.Target() != y {
		t.Fatalf("walk(%d,%d): runs %d → %d", x, y, walk.Source(), walk.Target())
	}
	if int32(walk.Len()) != wantLen {
		t.Fatalf("walk(%d,%d): length %d, kernel distance %d", x, y, walk.Len(), wantLen)
	}
	q := s.Min.Start
	for i, l := range walk.Labels {
		if !g.HasEdge(walk.Vertices[i], l, walk.Vertices[i+1]) {
			t.Fatalf("walk(%d,%d) step %d: no edge %d -%c-> %d", x, y, i, walk.Vertices[i], l, walk.Vertices[i+1])
		}
		next, ok := s.Min.StepOK(q, l)
		if !ok {
			t.Fatalf("walk(%d,%d) step %d: label %c outside the DFA alphabet", x, y, i, l)
		}
		q = next
	}
	if !s.Min.Accept[q] {
		t.Fatalf("walk(%d,%d): word %q ends in non-accepting state %d", x, y, walk.Word(), q)
	}
}

// checkDistKernel runs the distance sweep and compares against the
// oracle's array, then validates the walks of every reachable source.
func checkDistKernel(t *testing.T, s *Solver, g *graph.Graph, arcs []oracleArc, y int, want []int32, wantOverlay bool) {
	t.Helper()
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), s.Min, a)
	if wantOverlay && !p.vw.Overlay() {
		t.Fatalf("post-mutation phase must run on an overlay view")
	}
	p.distToGoal(y, a)
	ctx := fmt.Sprintf("y=%d", y)
	checkSweepAgainstOracle(t, g, p.m, arcs, a, true, want, ctx)
	checkSweepContracts(t, &p, a, ctx)
	for x := 0; x < p.n; x++ {
		d := want[p.id(x, s.Min.Start)]
		walk := p.sharedWalkFrom(a, x)
		if d < 0 {
			if walk != nil {
				t.Fatalf("%s walk(%d,%d): got a walk for an unreachable source", ctx, x, y)
			}
			continue
		}
		checkWalkBitValid(t, s, g, walk, x, y, d)
	}
}

// TestDistanceWitnessEquivalence is the randomized distance/witness
// equivalence suite: every tier's pattern, on the frozen
// snapshot and again on a post-mutation overlay view (edges flipped
// without an intervening freeze).
func TestDistanceWitnessEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(seed*23 + 5))
				g := tc.gen(seed)
				g.AddVertex() // stays isolated: empty frontier rows, unreachable ids
				s := tc.solver(t)
				n := g.NumVertices()
				targets := []int{0, n / 2, n - 1}

				check := func(wantOverlay bool) {
					for _, y := range targets {
						arcs, accept := dfaOracle(s.Min)
						want := textbookSweep(g, s.Min.NumStates, arcs, accept, y)
						checkDistKernel(t, s, g, arcs, y, want, wantOverlay)
					}
				}
				g.Freeze()
				check(false)

				// Mutation epoch WITHOUT a refreeze: the pinned views now
				// carry the pending delta as an overlay, so the kernels run
				// against overlay buckets.
				labels := g.Freeze().Labels()
				for i := 0; i < 6; i++ {
					u, v := rng.Intn(n), rng.Intn(n)
					l := labels[rng.Intn(len(labels))]
					if tc.name == "dag" && u >= v {
						u, v = v, u+1
						if v >= n {
							continue
						}
					}
					if !g.RemoveEdge(u, l, v) {
						g.AddEdge(u, l, v)
					}
				}
				check(true)
			}
		})
	}
}

// TestDistanceKernelShortestMatchesSolve cross-checks the kernel
// against the public API: on the walk-reduction tiers, Solve's witness
// (after loop removal) can only be at most as long as the kernel's
// shortest walk, and existence bits must agree exactly.
func TestDistanceKernelShortestMatchesSolve(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(30, []byte{'a', 'b', 'c'}, 0.12, 9)
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), s.Min, a)
	y := 3
	p.distToGoal(y, a)
	for x := 0; x < g.NumVertices(); x++ {
		d := a.distAt(p.id(x, s.Min.Start))
		res := s.Solve(g, x, y)
		if res.Found != (d >= 0) {
			t.Fatalf("(%d,%d): Solve found=%v, kernel distance %d", x, y, res.Found, d)
		}
		if res.Found && int32(res.Path.Len()) > d {
			t.Fatalf("(%d,%d): simple witness length %d exceeds shortest walk %d", x, y, res.Path.Len(), d)
		}
	}
}
