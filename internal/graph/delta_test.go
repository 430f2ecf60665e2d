package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// csrEqual compares two CSR snapshots structurally: same vertex / edge
// counts, same alphabet, identical bucket offsets and payload on both
// sides.
func csrEqual(a, b *CSR) bool {
	return a.n == b.n && a.m == b.m &&
		slices.Equal(a.labels, b.labels) &&
		slices.Equal(a.outBucket, b.outBucket) &&
		slices.Equal(a.outTo, b.outTo) &&
		slices.Equal(a.inBucket, b.inBucket) &&
		slices.Equal(a.inFrom, b.inFrom)
}

// rebuildClone reconstructs g from its edge list into a fresh graph, so
// freezing the clone always takes the from-scratch path.
func rebuildClone(g *Graph) *Graph {
	c := New(g.NumVertices())
	for _, e := range g.Edges() {
		c.AddEdge(e.From, e.Label, e.To)
	}
	return c
}

// checkAgainstRebuild freezes g (incrementally when possible) and
// asserts the snapshot — and the acyclicity verdict — match a graph
// rebuilt from scratch from the same edge set.
func checkAgainstRebuild(t *testing.T, g *Graph, step int) {
	t.Helper()
	got := g.Freeze()
	ref := rebuildClone(g)
	want := ref.Freeze()
	if !csrEqual(got, want) {
		t.Fatalf("step %d: incremental CSR diverges from rebuild\nincremental: n=%d m=%d labels=%q\nrebuild:     n=%d m=%d labels=%q",
			step, got.n, got.m, got.labels, want.n, want.m, want.labels)
	}
	if ga, ra := g.IsAcyclic(), ref.IsAcyclic(); ga != ra {
		t.Fatalf("step %d: acyclicity verdict %v, rebuild says %v", step, ga, ra)
	}
}

// TestDeltaFreezeEquivalence drives randomized add/remove/add-vertex
// interleavings with periodic freezes and asserts after every freeze
// that the incrementally merged CSR is byte-identical to a from-scratch
// rebuild of the same graph. Every other step pins a view, so the
// overlay a freeze flattens was reached through several successive
// extensions (the shape serving produces), not one build.
func TestDeltaFreezeEquivalence(t *testing.T) {
	labels := []byte{'a', 'b', 'c'}
	maxExtensions := 0 // the longest run of extensions some freeze flattened
	for seed := int64(0); seed < 12; seed++ {
		extensions := 0
		rng := rand.New(rand.NewSource(seed))
		g := New(4 + rng.Intn(12))
		var live []Edge // multiset view of current edges, for removals
		for i := 0; i < 40+rng.Intn(40); i++ {
			g.AddEdge(rng.Intn(g.NumVertices()), labels[rng.Intn(len(labels))], rng.Intn(g.NumVertices()))
		}
		live = g.Edges()
		g.Freeze() // establish the merge base

		for step := 0; step < 120; step++ {
			if step%2 == 0 {
				if willExtend(g) {
					extensions++
				}
				g.PinView()
			}
			switch op := rng.Intn(10); {
			case op < 5: // add (sometimes a duplicate or a self-loop)
				e := Edge{From: rng.Intn(g.NumVertices()), Label: labels[rng.Intn(len(labels))], To: rng.Intn(g.NumVertices())}
				if !g.HasEdge(e.From, e.Label, e.To) {
					live = append(live, e)
				}
				g.AddEdge(e.From, e.Label, e.To)
			case op < 8: // remove a live edge (or a missing one)
				if len(live) > 0 && rng.Intn(8) > 0 {
					i := rng.Intn(len(live))
					e := live[i]
					if !g.RemoveEdge(e.From, e.Label, e.To) {
						t.Fatalf("seed %d step %d: live edge %v not removable", seed, step, e)
					}
					live = append(live[:i], live[i+1:]...)
				} else if g.RemoveEdge(rng.Intn(g.NumVertices()), 'z', rng.Intn(g.NumVertices())) {
					t.Fatalf("seed %d step %d: removed a nonexistent edge", seed, step)
				}
			case op < 9: // grow the vertex set past the frozen base
				g.AddVertex()
			default: // freeze mid-stream so later deltas stack on a merged base
				checkAgainstRebuild(t, g, step)
				maxExtensions, extensions = max(maxExtensions, extensions), 0
			}
		}
		checkAgainstRebuild(t, g, -1)
		if full, inc := g.FreezeStats(); inc == 0 {
			t.Fatalf("seed %d: no incremental freeze ever ran (full=%d)", seed, full)
		}
	}
	if maxExtensions < 3 {
		t.Fatalf("no freeze flattened an overlay reached through 3 extensions (longest run %d)", maxExtensions)
	}
}

// TestDeltaFreezeAlphabetChange pins the fallback: introducing a label
// the base never saw (or draining one it did) changes the bucket
// stride, so Freeze must rebuild — and still match the reference.
func TestDeltaFreezeAlphabetChange(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	g.AddEdge(2, 'b', 3)
	g.Freeze()

	g.AddEdge(3, 'z', 4) // brand-new label: stride changes
	checkAgainstRebuild(t, g, 0)
	if _, inc := g.FreezeStats(); inc != 0 {
		t.Fatalf("alphabet growth must force a full rebuild, got %d incremental", inc)
	}

	if !g.RemoveEdge(3, 'z', 4) { // label 'z' vanishes again
		t.Fatal("edge (3,z,4) should exist")
	}
	checkAgainstRebuild(t, g, 1)
	if !slices.Equal(g.Alphabet(), []byte{'a', 'b'}) {
		t.Fatalf("alphabet after draining 'z' = %q, want ab", g.Alphabet())
	}
}

// TestDeltaFreezeCancellation pins the buffer invariants: re-adding a
// tombstoned edge and removing a not-yet-frozen edge both cancel out,
// leaving an empty delta and a snapshot identical to the base.
func TestDeltaFreezeCancellation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	base := g.Freeze()

	if !g.RemoveEdge(0, 'a', 1) {
		t.Fatal("remove of frozen edge failed")
	}
	g.AddEdge(0, 'a', 1) // cancels the tombstone
	g.AddEdge(2, 'a', 3)
	if !g.RemoveEdge(2, 'a', 3) { // cancels the add
		t.Fatal("remove of fresh edge failed")
	}
	if adds, dels := g.PendingDelta(); adds != 0 || dels != 0 {
		t.Fatalf("delta after cancellation = (%d adds, %d dels), want empty", adds, dels)
	}
	if got := g.Freeze(); !csrEqual(got, base) {
		t.Fatal("empty delta must freeze to a snapshot identical to the base")
	}
	checkAgainstRebuild(t, g, 0)
}

// TestDeltaFreezeLargeDeltaFallsBack pins the size guard: once the
// delta outgrows deltaMergeLimit of the base, Freeze rebuilds.
func TestDeltaFreezeLargeDeltaFallsBack(t *testing.T) {
	g := New(64)
	for v := 0; v < 32; v++ {
		g.AddEdge(v, 'a', v+1)
	}
	g.Freeze()
	for v := 0; v < 48; v++ { // far more than 25% of the 32-edge base
		g.AddEdge(v, 'b', 63-v)
		g.AddEdge(v, 'a', 63-v)
	}
	checkAgainstRebuild(t, g, 0)
	if _, inc := g.FreezeStats(); inc != 0 {
		t.Fatalf("oversized delta must force a full rebuild, got %d incremental", inc)
	}
}

// TestRemoveEdgeBasics pins RemoveEdge's contract on a never-frozen
// graph: presence check, degree bookkeeping, epoch advance, and no-op
// semantics for missing or out-of-range edges.
func TestRemoveEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	e0 := g.Epoch()
	if g.RemoveEdge(0, 'a', 2) || g.RemoveEdge(-1, 'a', 1) || g.RemoveEdge(0, 'a', 99) {
		t.Fatal("removing a missing or out-of-range edge must return false")
	}
	if g.Epoch() != e0 {
		t.Fatal("failed removals must not advance the epoch")
	}
	if !g.RemoveEdge(0, 'a', 1) {
		t.Fatal("existing edge must be removable")
	}
	if g.Epoch() == e0 {
		t.Fatal("successful removal must advance the epoch")
	}
	if g.NumEdges() != 1 || g.HasEdge(0, 'a', 1) || len(g.OutEdges(0)) != 0 || len(g.InEdges(1)) != 0 {
		t.Fatalf("adjacency not cleaned up: m=%d", g.NumEdges())
	}
	if !slices.Equal(g.Alphabet(), []byte{'b'}) {
		t.Fatalf("alphabet = %q, want b", g.Alphabet())
	}
}

// TestAcyclicityIncrementalRevalidation pins the verdict-preservation
// rules: mutations that provably cannot flip the verdict keep it
// cached, and only the genuinely ambiguous ones trigger a recheck.
func TestAcyclicityIncrementalRevalidation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	if !g.IsAcyclic() {
		t.Fatal("path must be acyclic")
	}
	g.AddVertex() // cannot flip
	if g.acyclic != 1 {
		t.Fatal("isolated vertex must keep the acyclic verdict cached")
	}
	g.RemoveEdge(1, 'a', 2) // removing from a DAG cannot flip
	if g.acyclic != 1 {
		t.Fatal("removal from a DAG must keep the acyclic verdict cached")
	}
	g.AddEdge(1, 'a', 2) // re-add: could create a cycle → recheck
	if g.acyclic != 0 {
		t.Fatal("edge into a DAG must drop the verdict for revalidation")
	}
	g.AddEdge(3, 'a', 3) // self-loop decides outright
	if g.acyclic != 2 || g.IsAcyclic() {
		t.Fatal("self-loop must mark the graph cyclic without a recheck")
	}
	g.AddEdge(2, 'a', 0) // adding to a cyclic graph cannot flip
	if g.acyclic != 2 {
		t.Fatal("edge added to a cyclic graph must keep the cyclic verdict")
	}
	g.RemoveEdge(3, 'a', 3) // removal from a cyclic graph → recheck
	if g.acyclic != 0 {
		t.Fatal("removal from a cyclic graph must drop the verdict")
	}
	if g.IsAcyclic() {
		t.Fatal("0→1→2→0 cycle remains")
	}
}
