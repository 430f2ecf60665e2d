package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// rebuildOracle reconstructs the graph's current content from scratch —
// a fresh Graph fed every live edge, frozen cold — so view answers can
// be compared against a CSR that never saw the delta machinery.
func rebuildOracle(g *Graph) *CSR {
	o := New(g.NumVertices())
	for _, e := range g.Edges() {
		o.AddEdge(e.From, e.Label, e.To)
	}
	return o.Freeze()
}

// checkViewAgainstCSR compares every bucket and count of vw against the
// oracle CSR.
func checkViewAgainstCSR(t *testing.T, vw *View, want *CSR) {
	t.Helper()
	if vw.NumVertices() != want.NumVertices() || vw.NumEdges() != want.NumEdges() {
		t.Fatalf("view size (%d,%d) != oracle (%d,%d)",
			vw.NumVertices(), vw.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		for wlid := 0; wlid < want.NumLabels(); wlid++ {
			label := want.Label(wlid)
			// The view's base may carry extra (now-empty) labels and
			// different dense ids than the cold oracle: compare by byte.
			got := vw.OutWith(v, label)
			exp := want.OutWithID(v, wlid)
			if !equalInt32(got, exp) {
				t.Fatalf("v=%d label=%c: view out %v != oracle %v", v, label, got, exp)
			}
			got = vw.InWith(v, label)
			exp = want.InWithID(v, wlid)
			if !equalInt32(got, exp) {
				t.Fatalf("v=%d label=%c: view in %v != oracle %v", v, label, got, exp)
			}
		}
		// Labels the oracle lacks must read empty through the view.
		for lid := 0; lid < vw.NumLabels(); lid++ {
			label := vw.Label(lid)
			if want.LabelID(label) >= 0 {
				continue
			}
			if len(vw.OutWithID(v, lid)) != 0 || len(vw.InWithID(v, lid)) != 0 {
				t.Fatalf("v=%d label=%c: vanished label must read empty", v, label)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewPassThroughIsBase pins the zero-overhead regime: on a frozen
// graph the view reports no overlay, aliases the base CSR's exact
// bucket slices, and is cached across pins.
func TestViewPassThroughIsBase(t *testing.T) {
	g := Random(40, []byte{'a', 'b'}, 0.1, 3)
	c := g.Freeze()
	vw := g.PinView()
	if vw.Overlay() {
		t.Fatal("frozen graph must pin a pass-through view")
	}
	if adds, removes := vw.PendingDelta(); adds+removes != 0 {
		t.Fatalf("pass-through view reports delta (%d,%d)", adds, removes)
	}
	if vw.Base() != c {
		t.Fatal("pass-through view must wrap the frozen CSR")
	}
	if g.PinView() != vw {
		t.Fatal("pinning twice without a mutation must return the cached view")
	}
	for v := 0; v < g.NumVertices(); v++ {
		for lid := 0; lid < c.NumLabels(); lid++ {
			got, exp := vw.OutWithID(v, lid), c.OutWithID(v, lid)
			if len(got) != len(exp) || (len(got) > 0 && &got[0] != &exp[0]) {
				t.Fatalf("v=%d lid=%d: pass-through bucket must alias the CSR slice", v, lid)
			}
		}
	}
}

// TestViewOverlayEquivalence is the randomized overlay ≡ rebuild suite:
// across seeds and delta fractions, a pinned overlay view must answer
// every adjacency question bit-identically to a from-scratch rebuild of
// the mutated graph — including removals, re-adds and duplicate flips.
func TestViewOverlayEquivalence(t *testing.T) {
	labels := []byte{'a', 'b', 'c'}
	for _, tc := range []struct {
		n     int
		p     float64
		flips int
		seed  int64
	}{
		{30, 0.10, 5, 1},
		{30, 0.10, 40, 2},
		{60, 0.08, 90, 3}, // near the overlay ceiling
		{12, 0.30, 10, 4},
	} {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.flips), func(t *testing.T) {
			g := Random(tc.n, labels, tc.p, tc.seed)
			g.Freeze()
			rng := rand.New(rand.NewSource(tc.seed * 131))
			for i := 0; i < tc.flips; i++ {
				from, label, to := rng.Intn(tc.n), labels[rng.Intn(len(labels))], rng.Intn(tc.n)
				if !g.RemoveEdge(from, label, to) {
					g.AddEdge(from, label, to)
				}
			}
			vw := g.PinView()
			if !vw.Overlay() && len(g.addBuf)+len(g.delBuf) > 0 {
				t.Fatalf("small same-alphabet delta must pin an overlay view")
			}
			checkViewAgainstCSR(t, vw, rebuildOracle(g))
			// HasEdge must agree with the mutable graph on hits and misses.
			for i := 0; i < 200; i++ {
				from, label, to := rng.Intn(tc.n), labels[rng.Intn(len(labels))], rng.Intn(tc.n)
				if vw.HasEdge(from, label, to) != g.HasEdge(from, label, to) {
					t.Fatalf("HasEdge(%d,%c,%d) disagrees with the graph", from, label, to)
				}
			}
		})
	}
}

// TestViewNewVertices covers rows born after the base freeze: they live
// only in the overlay map, and untouched new rows read empty instead of
// indexing past the base CSR.
func TestViewNewVertices(t *testing.T) {
	g := Random(20, []byte{'a', 'b'}, 0.15, 7)
	g.Freeze()
	u := g.AddVertex()
	w := g.AddVertex() // stays isolated
	g.AddEdge(u, 'a', 3)
	g.AddEdge(5, 'b', u)
	vw := g.PinView()
	if !vw.Overlay() {
		t.Fatal("new-vertex delta must pin an overlay view")
	}
	checkViewAgainstCSR(t, vw, rebuildOracle(g))
	if !rowEmpty(vw, w) {
		t.Fatal("isolated new vertex must read empty")
	}
	if len(vw.OutWith(w, 'a')) != 0 || len(vw.InWith(w, 'b')) != 0 {
		t.Fatal("isolated new vertex buckets must be nil")
	}
}

// TestViewCanceledDelta pins the canceled-out case: a flip applied twice
// restores the base content exactly, so the pin may (and does) serve the
// base pass-through instead of building an overlay — and the next Freeze
// reinstates that base instead of merging an empty delta into a copy.
func TestViewCanceledDelta(t *testing.T) {
	g := Random(20, []byte{'a', 'b'}, 0.15, 11)
	c := g.Freeze()
	muts := []Edge{{From: 1, Label: 'a', To: 2}, {From: 4, Label: 'b', To: 9}}
	FlipEdges(g, muts)
	FlipEdges(g, muts) // flip back: content identical to the base
	vw := g.PinView()
	if vw.Overlay() {
		t.Fatal("canceled delta must pin a pass-through view")
	}
	if vw.Base() != c {
		t.Fatal("canceled delta must serve the original base")
	}
	checkViewAgainstCSR(t, vw, rebuildOracle(g))
	full, inc := g.FreezeStats()
	if g.Freeze() != c {
		t.Fatal("Freeze over a canceled delta must reinstate the base, not copy it")
	}
	if f, i := g.FreezeStats(); f != full || i != inc {
		t.Fatalf("reinstating the base counted a build: full %d->%d, incremental %d->%d", full, f, inc, i)
	}
	if g.PinView() != vw {
		t.Fatal("reinstating the base must keep the pinned view")
	}
	g.AddVertex() // a grown vertex set is a delta the base does not describe
	if g.Freeze() == c {
		t.Fatal("Freeze after vertex growth must build a new snapshot")
	}
}

// TestViewNewLabelFallsBack pins the restructure case: an added label
// has no dense id in the base, so the pin must freeze synchronously
// (correctness first) and serve a pass-through over the new CSR.
func TestViewNewLabelFallsBack(t *testing.T) {
	g := Random(20, []byte{'a'}, 0.15, 13)
	g.Freeze()
	g.AddEdge(2, 'z', 3)
	vw := g.PinView()
	if vw.Overlay() {
		t.Fatal("new-label delta cannot be overlaid")
	}
	checkViewAgainstCSR(t, vw, rebuildOracle(g))
	if !vw.HasEdge(2, 'z', 3) {
		t.Fatal("fallback view must see the new-label edge")
	}
}

// TestViewImmutableAcrossCompaction pins MVCC semantics: a pinned
// overlay view — reached through three successive extensions — keeps
// answering its epoch's content even after the graph freezes the delta
// away and mutates further.
func TestViewImmutableAcrossCompaction(t *testing.T) {
	g := Random(25, []byte{'a', 'b'}, 0.12, 17)
	g.Freeze()
	g.AddEdge(1, 'a', 2)
	g.PinView()
	for _, e := range g.Edges()[:3] {
		g.RemoveEdge(e.From, e.Label, e.To)
		if !willExtend(g) {
			t.Fatal("the pin after a mutation must extend the previous overlay")
		}
		g.PinView()
	}
	vw := g.PinView()
	oracle := rebuildOracle(g)
	epoch := g.Epoch()

	g.Freeze() // compaction: merge the delta into a new base
	if g.Epoch() != epoch {
		t.Fatal("Freeze must not advance the epoch")
	}
	g.AddEdge(7, 'b', 8) // and mutate past it
	checkViewAgainstCSR(t, vw, oracle)
	if vw.Epoch() != epoch {
		t.Fatalf("pinned view's epoch moved: %d -> %d", epoch, vw.Epoch())
	}
}

// TestViewGrownOverlay pins that an overlay view, and one whose vertex
// set grew past the base, both answer like the rebuild oracle.
func TestViewGrownOverlay(t *testing.T) {
	g := Random(48, []byte{'a', 'b', 'c'}, 0.1, 19)
	g.Freeze()
	rng := rand.New(rand.NewSource(23))
	labels := []byte{'a', 'b', 'c'}
	for i := 0; i < 25; i++ {
		from, label, to := rng.Intn(48), labels[rng.Intn(3)], rng.Intn(48)
		if !g.RemoveEdge(from, label, to) {
			g.AddEdge(from, label, to)
		}
	}
	vw := g.PinView()
	if !vw.Overlay() {
		t.Fatal("want an overlay view")
	}
	checkViewAgainstCSR(t, vw, rebuildOracle(g))

	u := g.AddVertex()
	g.AddEdge(u, 'a', 0)
	vw2 := g.PinView()
	if !vw2.Overlay() || vw2.NumVertices() != vw2.Base().NumVertices()+1 {
		t.Fatalf("want an overlay view over a grown vertex set, got overlay=%v n=%d", vw2.Overlay(), vw2.NumVertices())
	}
	checkViewAgainstCSR(t, vw2, rebuildOracle(g))
}

// TestRemoveEdgeAbsentLeavesNoTombstone is the regression test for the
// absent-removal path: removing an edge that was never present must be
// a complete no-op — no tombstone accumulates in the delta, the epoch
// stays put, and the next pin still serves the untouched base.
func TestRemoveEdgeAbsentLeavesNoTombstone(t *testing.T) {
	g := Random(20, []byte{'a', 'b'}, 0.15, 31)
	c := g.Freeze()
	orig := g.Edges()
	for i := 0; i < 100; i++ {
		if g.RemoveEdge(3, 'a', (i*7)%20) && !c.HasEdge(3, 'a', (i*7)%20) {
			t.Fatal("RemoveEdge reported success on an absent edge")
		}
		g.RemoveEdge(5, 'z', 6) // label the graph has never seen
	}
	// Re-add every edge RemoveEdge actually hit so only no-ops remain.
	for _, e := range orig {
		if !g.HasEdge(e.From, e.Label, e.To) {
			g.AddEdge(e.From, e.Label, e.To)
		}
	}
	if adds, removes := g.PendingDelta(); removes != 0 {
		t.Fatalf("absent removals accumulated %d tombstones (adds=%d)", removes, adds)
	}
	if g.RemoveEdge(50, 'a', 3) {
		t.Fatal("out-of-range removal must fail")
	}
}
