package rspq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// This file pins the graph.View refactor: every kernel family must
// answer queries over a pinned overlay view (base CSR + pending delta)
// bit-identically to a from-scratch rebuild of the mutated graph.
// Found and existence bits are compared exactly; witnesses are verified
// rather than compared. The sweep crosses the algorithm tiers with
// shard counts, both round drivers and delta mixes, so the overlay-aware
// bucket reads are exercised in the single-shard, sharded, id-list and
// packed sweeps alike.

// rebuiltOracle reconstructs g's current content in a fresh graph that
// never saw the delta machinery, so its answers come from a cold full
// freeze.
func rebuiltOracle(g *graph.Graph) *graph.Graph {
	o := graph.New(g.NumVertices())
	for _, e := range g.Edges() {
		o.AddEdge(e.From, e.Label, e.To)
	}
	return o
}

// mutateKeepingShape flips count random edges within the frozen
// alphabet; on DAG inputs edges are kept forward so the graph stays
// acyclic and the tier under test does not shift mid-case.
func mutateKeepingShape(g *graph.Graph, rng *rand.Rand, count int, dag bool) {
	flipKeepingShape(g, rng, g.Freeze().Labels(), count, dag)
}

func flipKeepingShape(g *graph.Graph, rng *rand.Rand, labels []byte, count int, dag bool) {
	n := g.NumVertices()
	for i := 0; i < count; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		l := labels[rng.Intn(len(labels))]
		if dag {
			if u >= v {
				u, v = v, u+1
				if v >= n {
					continue
				}
			}
		}
		if !g.RemoveEdge(u, l, v) {
			g.AddEdge(u, l, v)
		}
	}
}

// mutateInSteps is mutateKeepingShape the way serving produces a delta:
// steps batches of count flips, a view pinned after each and no freeze
// in between, so the overlay read next was reached by extending its
// predecessors (and shares their untouched blocks) rather than built in
// one go.
func mutateInSteps(g *graph.Graph, rng *rand.Rand, steps, count int, dag bool) {
	labels := g.PinView().Labels()
	for ; steps > 0; steps-- {
		flipKeepingShape(g, rng, labels, count, dag)
		g.PinView()
	}
}

// repinByExtension re-reaches g's current edge set through three
// mutate→pin steps — one edge is removed and pinned away, then a second,
// then both come back — and returns the view pinned last. A SetShards
// resets the next pin to a from-scratch build; after this the view under
// test again extends its predecessors' overlays.
func repinByExtension(t *testing.T, g *graph.Graph) *graph.View {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(g.NumEdges())))
	var es []graph.Edge
	for tries := 0; len(es) < 2 && tries < 1000; tries++ {
		if out := g.OutEdges(rng.Intn(g.NumVertices())); len(out) > 0 {
			if e := out[rng.Intn(len(out))]; len(es) == 0 || es[0] != e {
				es = append(es, e)
			}
		}
	}
	if len(es) < 2 {
		t.Fatal("repinByExtension: the graph has no two edges to take out and put back")
	}
	for _, e := range es {
		g.RemoveEdge(e.From, e.Label, e.To)
		g.PinView()
	}
	for _, e := range es {
		g.AddEdge(e.From, e.Label, e.To)
	}
	return g.PinView()
}

// checkOverlayAgainstOracle answers every pair on the mutated graph —
// per query, batched, existence-only, and through an Engine — and
// requires exact agreement with the rebuilt oracle.
func checkOverlayAgainstOracle(t *testing.T, s *Solver, g *graph.Graph, pairs []Pair, label string) {
	t.Helper()
	oracle := rebuiltOracle(g)
	oracle.SetShards(g.ShardCount())
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
// every tier × K ∈ {0, 1, 4, 8} × delta sizes, with the overlay regime
// asserted (not assumed) on each case.
func TestOverlayEquivalence(t *testing.T) {
	for _, tc := range shardTierCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, flips := range []int{3, 24} {
				for _, k := range []int{0, 1, 4, 8} {
					for seed := int64(0); seed < 2; seed++ {
						s := tc.solver(t)
						rng := rand.New(rand.NewSource(seed*97 + int64(flips)))
						g := tc.gen(seed)
						isolated := g.AddVertex()
						pairs := shardPairSet(g, isolated, rng)
						g.SetShards(k)
						s.Warm(g) // freeze the base pre-delta

						mutateKeepingShape(g, rng, flips, tc.name == "dag")
						label := fmt.Sprintf("K=%d flips=%d seed=%d", k, flips, seed)
						if adds, removes := g.PendingDelta(); adds+removes > 0 {
							vw := g.PinView()
							if !vw.Overlay() {
								t.Fatalf("%s: small same-alphabet delta must pin an overlay view", label)
							}
							if vw.Shards() != k {
								t.Fatalf("%s: overlay view reports K=%d", label, vw.Shards())
							}
						}
						checkOverlayAgainstOracle(t, s, g, pairs, label)
					}
				}
			}
		})
	}
}

// TestOverlayKernelModes crosses the overlay with both round drivers on
// the walk-reduction tier, unsharded and K=4.
func TestOverlayKernelModes(t *testing.T) {
	for _, m := range kernelModes() {
		t.Run(m.name, func(t *testing.T) {
			setKernelMode(t, m)
			for _, k := range []int{0, 4} {
				s, err := NewSolver("a*c*")
				if err != nil {
					t.Fatal(err)
				}
				g := graph.Random(40, []byte{'a', 'b', 'c'}, 0.1, 41)
				rng := rand.New(rand.NewSource(43))
				pairs := shardPairSet(g, g.NumVertices()-1, rng)
				g.SetShards(k)
				s.Warm(g)
				mutateKeepingShape(g, rng, 16, false)
				if !g.PinView().Overlay() {
					t.Fatal("expected an overlay view")
				}
				checkOverlayAgainstOracle(t, s, g, pairs, fmt.Sprintf("%s K=%d", m.name, k))
			}
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
	pairs := shardPairSet(g, g.NumVertices()-1, rng)
	s.Warm(g)
	removed := 0
	for _, e := range g.Edges() {
		if rng.Intn(4) == 0 {
			g.RemoveEdge(e.From, e.Label, e.To)
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
	checkOverlayAgainstOracle(t, s, g, pairs, "removal-heavy")
}
