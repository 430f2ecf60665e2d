package rspq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file pins the graph.View refactor: every kernel family must
// answer queries over a pinned overlay view (base CSR + pending delta)
// bit-identically to a from-scratch rebuild of the mutated graph.
// Found and existence bits are compared exactly; witnesses are verified
// rather than compared. The sweep crosses the algorithm tiers with delta
// mixes and lane widths, so the overlay-aware bucket reads are exercised
// at one and at two words per vertex.

// mutateKeepingShape flips count random edges within the frozen
// alphabet; on DAG inputs edges are kept forward so the graph stays
// acyclic and the tier under test does not shift mid-case.
func mutateKeepingShape(l *edgeLedger, rng *rand.Rand, count int, dag bool) {
	flipKeepingShape(l, rng, l.g.Freeze().Labels(), count, dag)
}

func flipKeepingShape(l *edgeLedger, rng *rand.Rand, labels []byte, count int, dag bool) {
	n := l.g.NumVertices()
	for i := 0; i < count; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		lb := labels[rng.Intn(len(labels))]
		if dag {
			if u >= v {
				u, v = v, u+1
				if v >= n {
					continue
				}
			}
		}
		l.flip(u, lb, v)
	}
}

// mutateInSteps is mutateKeepingShape the way serving produces a delta:
// steps batches of count flips, a view pinned after each and no freeze
// in between, so the overlay read next was reached by extending its
// predecessors (and shares their untouched blocks) rather than built in
// one go.
func mutateInSteps(l *edgeLedger, rng *rand.Rand, steps, count int, dag bool) {
	labels := l.g.PinView().Labels()
	for ; steps > 0; steps-- {
		flipKeepingShape(l, rng, labels, count, dag)
		l.g.PinView()
	}
}

// repinByExtension re-reaches the graph's current edge set through three
// mutate→pin steps — one edge is removed and pinned away, then a second,
// then both come back — and returns the view pinned last, which extends
// its predecessors' overlays whatever built the one before.
func repinByExtension(t *testing.T, l *edgeLedger) *graph.View {
	t.Helper()
	g := l.g
	rng := rand.New(rand.NewSource(int64(g.NumEdges())))
	var es []graph.Edge
	for tries := 0; len(es) < 2 && tries < 1000; tries++ {
		if out := l.out[rng.Intn(g.NumVertices())]; len(out) > 0 {
			if e := out[rng.Intn(len(out))]; len(es) == 0 || es[0] != e {
				es = append(es, e)
			}
		}
	}
	if len(es) < 2 {
		t.Fatal("repinByExtension: the graph has no two edges to take out and put back")
	}
	for _, e := range es {
		l.remove(e.From, e.Label, e.To)
		g.PinView()
	}
	for _, e := range es {
		l.add(e.From, e.Label, e.To)
	}
	return g.PinView()
}

// checkOverlayAgainstOracle answers every pair on the mutated graph —
// per query, batched, existence-only, and through an Engine — and
// requires exact agreement with the ledger's edges rebuilt cold.
func checkOverlayAgainstOracle(t *testing.T, s *Solver, l *edgeLedger, pairs []Pair, label string) {
	t.Helper()
	g, oracle := l.g, l.rebuilt()
	want := make([]Result, len(pairs))
	for i, pq := range pairs {
		want[i] = s.Solve(oracle, pq.X, pq.Y)
	}
	wantEx := NewBatchSolver(s, oracle).SolveExists(pairs)

	for i, pq := range pairs {
		got := s.Solve(g, pq.X, pq.Y)
		if got.Found != want[i].Found {
			t.Fatalf("%s Solve(%d,%d): overlay found=%v, rebuild says %v", label, pq.X, pq.Y, got.Found, want[i].Found)
		}
		if !VerifyWitness(got, g, s.Min, pq.X, pq.Y) {
			t.Fatalf("%s Solve(%d,%d): invalid overlay witness %v", label, pq.X, pq.Y, got.Path)
		}
	}
	batch := NewBatchSolver(s, g).Solve(pairs)
	for i, got := range batch {
		if got.Found != want[i].Found {
			t.Fatalf("%s batch pair %d (%d,%d): overlay found=%v, rebuild says %v",
				label, i, pairs[i].X, pairs[i].Y, got.Found, want[i].Found)
		}
		if !VerifyWitness(got, g, s.Min, pairs[i].X, pairs[i].Y) {
			t.Fatalf("%s batch pair %d: invalid overlay witness", label, i)
		}
	}
	for i, got := range NewBatchSolver(s, g).SolveExists(pairs) {
		if got != wantEx[i] {
			t.Fatalf("%s exists pair %d (%d,%d): overlay %v, rebuild says %v",
				label, i, pairs[i].X, pairs[i].Y, got, wantEx[i])
		}
	}
	eng := NewEngine(s, g, EngineConfig{})
	for i, pq := range pairs {
		if got := eng.Solve(pq.X, pq.Y); got.Found != want[i].Found {
			t.Fatalf("%s engine Solve(%d,%d): overlay found=%v, rebuild says %v",
				label, pq.X, pq.Y, got.Found, want[i].Found)
		}
	}
}

// TestOverlayEquivalence is the randomized overlay ≡ rebuild suite:
// every tier × delta sizes, with the overlay regime asserted (not
// assumed) on each case.
func TestOverlayEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, flips := range []int{3, 24} {
				for seed := int64(0); seed < 2; seed++ {
					s := tc.solver(t)
					rng := rand.New(rand.NewSource(seed*97 + int64(flips)))
					g := tc.gen(seed)
					isolated := g.AddVertex()
					pairs := pairSet(g, isolated, rng)
					l := newLedger(g)
					s.Warm(g) // freeze the base pre-delta

					mutateKeepingShape(l, rng, flips, tc.name == "dag")
					label := fmt.Sprintf("flips=%d seed=%d", flips, seed)
					if adds, removes := g.PendingDelta(); adds+removes > 0 && !g.PinView().Overlay() {
						t.Fatalf("%s: small same-alphabet delta must pin an overlay view", label)
					}
					checkOverlayAgainstOracle(t, s, l, pairs, label)
				}
			}
		})
	}
}

// TestOverlayKernelModes crosses the overlay with the sweep's lane
// widths on the walk-reduction tier: a*c* packs into one word per
// vertex, the subword-closed (a*b*){33} into two.
func TestOverlayKernelModes(t *testing.T) {
	for _, m := range []struct{ name, pattern string }{{"packed", "a*c*"}, {"packed-wide", "(a*b*){33}"}} {
		t.Run(m.name, func(t *testing.T) {
			s, err := NewSolver(m.pattern)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.Random(40, []byte{'a', 'b', 'c'}, 0.1, 41)
			rng := rand.New(rand.NewSource(43))
			pairs := pairSet(g, g.NumVertices()-1, rng)
			l := newLedger(g)
			s.Warm(g)
			mutateKeepingShape(l, rng, 16, false)
			if !g.PinView().Overlay() {
				t.Fatal("expected an overlay view")
			}
			checkOverlayAgainstOracle(t, s, l, pairs, m.name)
		})
	}
}

// TestOverlayRemovalHeavy pins the tombstone-only direction: a delta of
// pure removals (no adds) must hide every removed edge from all
// kernels.
func TestOverlayRemovalHeavy(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(36, []byte{'a', 'b', 'c'}, 0.12, 47)
	rng := rand.New(rand.NewSource(53))
	pairs := pairSet(g, g.NumVertices()-1, rng)
	l := newLedger(g)
	s.Warm(g)
	removed := 0
	for _, e := range g.Edges() {
		if rng.Intn(4) == 0 {
			l.remove(e.From, e.Label, e.To)
			removed++
			if removed >= 20 {
				break
			}
		}
	}
	if removed == 0 {
		t.Fatal("no removals applied")
	}
	vw := g.PinView()
	if !vw.Overlay() {
		t.Fatal("expected an overlay view")
	}
	if adds, removes := vw.PendingDelta(); adds != 0 || removes != removed {
		t.Fatalf("view delta (%d,%d), want (0,%d)", adds, removes, removed)
	}
	checkOverlayAgainstOracle(t, s, l, pairs, "removal-heavy")
}

// growPastBase mutates a frozen graph so the next pin is an overlay over
// a LARGER vertex set than its base: it flips a few old edges, then
// appends grow vertices, wires each into the old graph in both
// directions (old → new → old, labels from the frozen alphabet) and
// chains them. On DAG inputs (graph.LayeredDAG with the given width) new
// vertices hang between the first and the last layer and the chain runs
// forward, so the graph stays acyclic.
func growPastBase(l *edgeLedger, rng *rand.Rand, grow, dagWidth int) []int {
	labels := l.g.Freeze().Labels()
	n0 := l.g.NumVertices()
	label := func() byte { return labels[rng.Intn(len(labels))] }
	mutateKeepingShape(l, rng, 4, dagWidth > 0)
	var added []int
	for i := 0; i < grow; i++ {
		w := l.addVertex()
		if dagWidth > 0 {
			l.add(rng.Intn(dagWidth), label(), w)
			l.add(w, label(), n0-1-rng.Intn(dagWidth))
		} else {
			l.add(rng.Intn(n0), label(), w)
			l.add(w, label(), rng.Intn(n0))
			l.add(rng.Intn(n0), label(), w)
		}
		if len(added) > 0 {
			l.add(added[len(added)-1], label(), w)
		}
		added = append(added, w)
	}
	l.addVertex() // one new vertex stays isolated: an empty row past the base
	return added
}

// TestGrownOverlayEquivalence covers an overlay that added VERTICES as
// well as edges after the base freeze, so the view's rows extend past
// the base CSR. For every tier, Solve, Shortest lengths, BatchSolver and
// Engine must agree with the textbook oracle and with BaselineShortest
// on a cold rebuild. A kernel that read a row >= base.n through the base
// instead of the view would panic or miss the new vertices' paths here.
func TestGrownOverlayEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				s := tc.solver(t)
				rng := rand.New(rand.NewSource(seed*53 + 5))
				g := tc.gen(seed)
				l := newLedger(g)
				s.Warm(g) // the base every later view overlays
				dagWidth := 0
				if tc.name == "dag" {
					dagWidth = 4
				}
				added := growPastBase(l, rng, 5, dagWidth)
				pairs := pairSet(g, g.NumVertices()-1, rng)
				for _, w := range added {
					pairs = append(pairs, Pair{X: rng.Intn(g.NumVertices()), Y: w}, Pair{X: w, Y: rng.Intn(g.NumVertices())})
				}
				pairs = append(pairs, Pair{X: added[0], Y: added[len(added)-1]})

				oracle := l.rebuilt()
				wantLen := make([]int, len(pairs)) // -1: no simple L-path
				reached := 0
				for i, pq := range pairs {
					wantLen[i] = -1
					if res := BaselineShortest(oracle, s.Min, pq.X, pq.Y, nil); res.Found {
						wantLen[i] = res.Path.Len()
						if slices.Contains(added, pq.X) || slices.Contains(added, pq.Y) {
							reached++
						}
					}
				}
				if reached == 0 {
					t.Fatalf("seed %d: no positive pair touches a new vertex; the case is not exercised", seed)
				}
				want := oracleAnswers(s, l, pairs)
				for i := range pairs {
					if want[i] != (wantLen[i] >= 0) {
						t.Fatalf("seed %d: oracle answer (%d,%d)=%v disagrees with BaselineShortest", seed, pairs[i].X, pairs[i].Y, want[i])
					}
				}
				if vw := repinByExtension(t, l); !vw.Overlay() || vw.NumVertices() <= vw.Base().NumVertices() {
					t.Fatalf("want an overlay over a grown vertex set (overlay=%v, n=%d, base n=%d)",
						vw.Overlay(), vw.NumVertices(), vw.Base().NumVertices())
				}
				checkAnswers(t, s, g, pairs, want, fmt.Sprintf("seed %d", seed))
				for i, pq := range pairs {
					gotLen := -1
					if got := s.Shortest(g, pq.X, pq.Y); got.Found {
						gotLen = got.Path.Len()
					}
					if gotLen != wantLen[i] {
						t.Fatalf("seed %d Shortest(%d,%d): length %d, BaselineShortest says %d",
							seed, pq.X, pq.Y, gotLen, wantLen[i])
					}
				}
			}
		})
	}
}
