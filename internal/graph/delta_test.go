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

// checkAgainstRebuild freezes g (incrementally when possible) and
// asserts the snapshot — and the acyclicity verdict — match a graph
// built from scratch from the test's own edge list.
func checkAgainstRebuild(t *testing.T, g *tracked, step int) {
	t.Helper()
	got := g.Freeze()
	ref := New(len(g.o.out))
	for _, e := range g.o.edges() {
		ref.AddEdge(e.From, e.Label, e.To)
	}
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
// rebuild of the same graph. Every other step pins a view, so freezes
// also run after several successive extensions, with a view pinned and
// a log pending (the shape serving produces).
func TestDeltaFreezeEquivalence(t *testing.T) {
	labels := []byte{'a', 'b', 'c'}
	maxExtensions := 0 // the longest run of extensions before some freeze
	for seed := int64(0); seed < 12; seed++ {
		extensions := 0
		rng := rand.New(rand.NewSource(seed))
		g := track(New(4 + rng.Intn(12)))
		for i := 0; i < 40+rng.Intn(40); i++ {
			g.AddEdge(rng.Intn(g.NumVertices()), labels[rng.Intn(len(labels))], rng.Intn(g.NumVertices()))
		}
		g.Freeze() // establish the merge base

		for step := 0; step < 120; step++ {
			if step%2 == 0 {
				if willExtend(g.Graph) {
					extensions++
				}
				g.PinView()
			}
			switch op := rng.Intn(10); {
			case op < 5: // add (sometimes a duplicate or a self-loop)
				e := Edge{From: rng.Intn(g.NumVertices()), Label: labels[rng.Intn(len(labels))], To: rng.Intn(g.NumVertices())}
				g.AddEdge(e.From, e.Label, e.To)
			case op < 8: // remove a live edge (or a missing one)
				if live := g.o.edges(); len(live) > 0 && rng.Intn(8) > 0 {
					e := live[rng.Intn(len(live))]
					if !g.RemoveEdge(e.From, e.Label, e.To) {
						t.Fatalf("seed %d step %d: live edge %v not removable", seed, step, e)
					}
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
		t.Fatalf("no freeze followed 3 extensions (longest run %d)", maxExtensions)
	}
}

// TestDeltaFreezeAlphabetChange pins the fallback: introducing a label
// the base never saw (or draining one it did) changes the bucket
// stride, so Freeze must rebuild — and still match the reference.
func TestDeltaFreezeAlphabetChange(t *testing.T) {
	g := track(New(6))
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
	g := track(New(4))
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
	g := track(New(64))
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
