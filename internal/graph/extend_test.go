package graph

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// This file pins the overlay extension (overlaySet.extend): a view
// reached by extending the previous epoch's overlay with the edges
// logged since must equal, structurally and through every accessor, the
// view built from scratch on a clone of the graph and a full rebuild of
// the edge set; views pinned earlier must keep reading their own epoch;
// and a pin must cost its write's batch, not the pending delta.

// cloneForScratch copies g's mutable state (sharing the immutable base)
// without its pinned view or log, so pinning the clone builds the
// overlay from the net delta alone.
func cloneForScratch(g *Graph) *Graph {
	c := &Graph{
		out: make([][]Edge, len(g.out)), in: make([][]Edge, len(g.in)),
		edges: g.edges, names: slices.Clone(g.names), labelCount: g.labelCount,
		csr: g.csr, csrBase: g.csrBase, acyclic: g.acyclic,
		addBuf: maps.Clone(g.addBuf), delBuf: maps.Clone(g.delBuf),
		deltaNewLabel: g.deltaNewLabel, shardCount: g.shardCount,
	}
	for v := range g.out {
		c.out[v], c.in[v] = slices.Clone(g.out[v]), slices.Clone(g.in[v])
	}
	c.epoch.Store(g.Epoch())
	return c
}

// overlaysEqual compares two overlay sides block for block.
func overlaysEqual(a, b *overlaySet) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return slices.EqualFunc(a.blocks, b.blocks, func(x, y *overlayBlock) bool {
		if x == nil || y == nil {
			return x == y
		}
		return x.dirty == y.dirty && slices.EqualFunc(x.ents, y.ents, func(p, q overlayEntry) bool {
			return p.bucket == q.bucket && slices.Equal(p.vals, q.vals)
		})
	})
}

// checkViewsEqual asserts that got — reached by extension — is the view
// a from-scratch build produced: same counts, same overlay structure,
// same answer from every accessor.
func checkViewsEqual(t *testing.T, got, want *View) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		got.Epoch() != want.Epoch() || got.Shards() != want.Shards() || got.Overlay() != want.Overlay() {
		t.Fatalf("view (n=%d m=%d epoch=%d K=%d overlay=%v) != scratch (n=%d m=%d epoch=%d K=%d overlay=%v)",
			got.NumVertices(), got.NumEdges(), got.Epoch(), got.Shards(), got.Overlay(),
			want.NumVertices(), want.NumEdges(), want.Epoch(), want.Shards(), want.Overlay())
	}
	ga, gr := got.PendingDelta()
	wa, wr := want.PendingDelta()
	if ga != wa || gr != wr {
		t.Fatalf("PendingDelta (%d,%d) != scratch (%d,%d)", ga, gr, wa, wr)
	}
	if !csrEqual(got.Base(), want.Base()) {
		t.Fatal("extended and scratch views sit on different bases")
	}
	if !overlaysEqual(got.out, want.out) || !overlaysEqual(got.in, want.in) {
		t.Fatal("extended overlay differs structurally from the scratch build")
	}
	for v := 0; v < want.NumVertices(); v++ {
		for lid := 0; lid < want.NumLabels(); lid++ {
			if !slices.Equal(got.OutWithID(v, lid), want.OutWithID(v, lid)) ||
				!slices.Equal(got.InWithID(v, lid), want.InWithID(v, lid)) {
				t.Fatalf("v=%d lid=%d: buckets differ from the scratch build", v, lid)
			}
		}
	}
}

// sortedEdges returns the keys of a delta buffer in a fixed order, so
// the soak stays deterministic in its seed.
func sortedEdges(m map[Edge]struct{}) []Edge {
	es := slices.Collect(maps.Keys(m))
	slices.SortFunc(es, func(a, b Edge) int {
		if a.From != b.From {
			return a.From - b.From
		}
		if a.Label != b.Label {
			return int(a.Label) - int(b.Label)
		}
		return a.To - b.To
	})
	return es
}

// willExtend reports whether the next PinView extends a non-empty
// overlay by a non-empty log — the path the soak is about.
func willExtend(g *Graph) bool {
	return g.view != nil && g.view.out != nil && len(g.viewLog) > 0 && g.csr == nil && g.canOverlay()
}

// TestViewExtensionSoak drives mixed batches — adds, removes, re-adds
// of tombstoned edges, removals of pending adds, in-batch cancel pairs,
// vertex growth, an add/remove pair of an out-of-alphabet label, an
// occasional Freeze or SetShards — and pins after every batch.
func TestViewExtensionSoak(t *testing.T) {
	labels := []byte{'a', 'b', 'c'}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := Random(40+int(seed)*30, labels, 0.05, seed) // spans one to three row blocks
		g.Freeze()
		randEdge := func() Edge {
			return Edge{From: rng.Intn(g.NumVertices()), Label: labels[rng.Intn(3)], To: rng.Intn(g.NumVertices())}
		}
		liveEdge := func() (Edge, bool) {
			for tries := 0; tries < 20; tries++ {
				if es := g.OutEdges(rng.Intn(g.NumVertices())); len(es) > 0 {
					return es[rng.Intn(len(es))], true
				}
			}
			return Edge{}, false
		}
		var extended, shared, passes, freezes int
		for step := 0; step < 240; step++ {
			for ops := 1 + rng.Intn(10); ops > 0; ops-- {
				switch op := rng.Intn(40); {
				case op < 12:
					e := randEdge()
					g.AddEdge(e.From, e.Label, e.To)
				case op < 22:
					if e, ok := liveEdge(); ok {
						g.RemoveEdge(e.From, e.Label, e.To)
					}
				case op < 26: // re-add a tombstoned base edge
					if es := sortedEdges(g.delBuf); len(es) > 0 {
						e := es[rng.Intn(len(es))]
						g.AddEdge(e.From, e.Label, e.To)
					}
				case op < 30: // remove a pending add
					if es := sortedEdges(g.addBuf); len(es) > 0 {
						e := es[rng.Intn(len(es))]
						g.RemoveEdge(e.From, e.Label, e.To)
					}
				case op < 33: // cancel pair inside the batch
					if e := randEdge(); g.RemoveEdge(e.From, e.Label, e.To) {
						g.AddEdge(e.From, e.Label, e.To)
					} else {
						g.AddEdge(e.From, e.Label, e.To)
						g.RemoveEdge(e.From, e.Label, e.To)
					}
				case op < 35: // undo the whole delta: the next pin is pass-through
					for _, e := range sortedEdges(g.addBuf) {
						g.RemoveEdge(e.From, e.Label, e.To)
					}
					for _, e := range sortedEdges(g.delBuf) {
						g.AddEdge(e.From, e.Label, e.To)
					}
				case op < 37:
					v := g.AddVertex()
					g.AddEdge(v, labels[rng.Intn(3)], rng.Intn(v))
				case op < 38: // a label the base lacks comes and goes: the log keeps both
					e := randEdge()
					g.AddEdge(e.From, 'z', e.To)
					g.RemoveEdge(e.From, 'z', e.To)
				case op < 39:
					g.Freeze()
					freezes++
				default:
					g.SetShards(rng.Intn(4))
				}
			}
			ext, prev := willExtend(g), g.view
			vw := g.PinView()
			if g.PinView() != vw {
				t.Fatalf("seed %d step %d: second pin of one epoch built a new view", seed, step)
			}
			checkViewsEqual(t, vw, cloneForScratch(g).PinView())
			checkViewAgainstCSR(t, vw, rebuildOracle(g))
			for i := 0; i < 50; i++ {
				if e := randEdge(); vw.HasEdge(e.From, e.Label, e.To) != g.HasEdge(e.From, e.Label, e.To) {
					t.Fatalf("seed %d step %d: HasEdge(%v) disagrees with the graph", seed, step, e)
				}
			}
			if !vw.Overlay() {
				passes++
			}
			if ext && vw.Overlay() {
				extended++
				// A block the batch missed is the previous view's, not a copy.
				for i, blk := range vw.in.blocks {
					if blk != nil && i < len(prev.in.blocks) && blk == prev.in.blocks[i] {
						shared++
					}
				}
			}
		}
		if extended < 120 || shared == 0 || passes == 0 || freezes == 0 {
			t.Fatalf("seed %d: soak is vacuous: %d extensions (%d shared blocks), %d pass-through pins, %d freezes",
				seed, extended, shared, passes, freezes)
		}
	}
}

// TestViewExtensionImmutable holds the views of three successive epochs
// across further extensions, a compaction and more extensions, with a
// reader scanning the oldest one throughout (-race): each must keep
// reading its own epoch's adjacency.
func TestViewExtensionImmutable(t *testing.T) {
	labels := []byte{'a', 'b'}
	g := Random(150, labels, 0.03, 41)
	g.Freeze()
	rng := rand.New(rand.NewSource(43))
	batch := func() {
		for i := 0; i < 12; i++ {
			from, label, to := rng.Intn(150), labels[rng.Intn(2)], rng.Intn(150)
			if !g.RemoveEdge(from, label, to) {
				g.AddEdge(from, label, to)
			}
		}
	}
	var held []*View
	var oracles []*CSR
	for i := 0; i < 3; i++ {
		batch()
		held = append(held, g.PinView())
		oracles = append(oracles, rebuildOracle(g))
		if !held[i].Overlay() || (i > 0 && held[i].Epoch() <= held[i-1].Epoch()) {
			t.Fatalf("view %d: want overlays of successive epochs", i)
		}
	}

	scan := func(vw *View) (sum int) {
		for v := 0; v < vw.NumVertices(); v++ {
			for lid := 0; lid < vw.NumLabels(); lid++ {
				for _, w := range vw.OutWithID(v, lid) {
					sum += int(w)
				}
				for _, w := range vw.InWithID(v, lid) {
					sum += int(w)
				}
			}
		}
		return sum
	}
	want := scan(held[0])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := scan(held[0]); got != want {
				t.Errorf("held view changed under the reader: checksum %d -> %d", want, got)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		batch()
		if i == 15 {
			g.Freeze() // compaction: later extensions start from a new base
		}
		g.PinView()
	}
	close(stop)
	wg.Wait()
	for i, vw := range held {
		checkViewAgainstCSR(t, vw, oracles[i])
	}
}

// TestViewExtensionCancel pins what leaves the overlay: a bucket whose
// delta cancels across two pins is dropped from it (and its row reads
// clean again), and a delta that cancels entirely pins the base
// pass-through, which the next Freeze reinstates without building.
func TestViewExtensionCancel(t *testing.T) {
	g := New(200)
	for v := 0; v < 199; v++ {
		g.AddEdge(v, 'a', v+1)
	}
	c := g.Freeze()
	g.PinView()
	g.AddEdge(3, 'a', 9)
	g.RemoveEdge(150, 'a', 151)
	vw := g.PinView()
	if _, ok := vw.out.get(3, vw.stride*3); !ok || !vw.out.dirtyRow(3) || !vw.in.dirtyRow(9) {
		t.Fatal("the added edge's buckets must be in the overlay")
	}

	g.RemoveEdge(3, 'a', 9)
	vw = g.PinView()
	if !vw.Overlay() || vw.out.dirtyRow(3) || vw.in.dirtyRow(9) || vw.out.blocks[0] != nil {
		t.Fatal("a bucket whose delta canceled must leave the overlay, and its block with it")
	}
	if !vw.out.dirtyRow(150) || vw.HasEdge(150, 'a', 151) {
		t.Fatal("the other pending removal must stay overlaid")
	}
	checkViewAgainstCSR(t, vw, rebuildOracle(g))

	g.AddEdge(150, 'a', 151)
	if vw = g.PinView(); vw.Overlay() || vw.Base() != c {
		t.Fatal("a delta that cancels entirely must pin the base pass-through")
	}
	full, inc := g.FreezeStats()
	if g.Freeze() != c {
		t.Fatal("Freeze over a canceled delta must reinstate the base")
	}
	if f, i := g.FreezeStats(); f != full || i != inc {
		t.Fatalf("reinstating the base counted a build: full %d->%d, incremental %d->%d", full, f, inc, i)
	}
}

// TestViewLogForgotten pins the bound on the mutation log: edges toggled
// back and forth between two pins grow the log, not the delta, and once
// it is longer than the delta (plus the floor) the graph drops it with
// the view it extends; the next pin then builds from the net delta and still
// reads right.
func TestViewLogForgotten(t *testing.T) {
	g := Random(60, []byte{'a', 'b'}, 0.05, 71)
	g.Freeze()
	g.AddEdge(1, 'a', 2)
	g.PinView()
	toggles := 0
	for ; g.view != nil && toggles < 1000; toggles++ {
		FlipEdges(g, []Edge{{From: 3, Label: 'b', To: 4}})
	}
	// The delta never exceeds two edges, so the bound sits at 64 to 66.
	if toggles <= deltaMergeFloor || toggles > deltaMergeFloor+5 || g.viewLog != nil {
		t.Fatalf("log forgotten after %d toggles over a delta of at most 2 (log now %d); want just past the floor of %d",
			toggles, len(g.viewLog), deltaMergeFloor)
	}
	vw := g.PinView()
	checkViewsEqual(t, vw, cloneForScratch(g).PinView())
	checkViewAgainstCSR(t, vw, rebuildOracle(g))
}

// TestViewExtensionWorkGuard is the cost bar: on a 100k-vertex /
// 300k-edge graph, pinning after a 320-flip batch with 16k edges pending
// shares every row block the batch missed with the previous view and
// allocates what the batch touches — within a small multiple of the
// same pin at 1k pending (re-sorting the whole delta, as every pin once
// did, costs 12× more there in both).
func TestViewExtensionWorkGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 300k-edge graph")
	}
	const batch = 320
	g, muts := StreamingWorkload(300_000, 0.065, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < len(muts); i += 2 { // every other flip removes a base edge
		for {
			if es := g.OutEdges(rng.Intn(g.NumVertices())); len(es) > 0 {
				muts[i] = es[rng.Intn(len(es))]
				break
			}
		}
	}
	g.Freeze()
	g.PinView()
	// pinCost flips `pending` edges, pins, and then measures pins after
	// further 320-flip batches: bytes allocated and the best wall time.
	pinCost := func(pending int) (bytes uint64, best time.Duration) {
		FlipEdges(g, muts[:pending])
		g.PinView()
		muts = muts[pending:]
		best = time.Hour
		var m0, m1 runtime.MemStats
		for round := 0; round < 5; round++ {
			FlipEdges(g, muts[:batch])
			muts = muts[batch:]
			if !willExtend(g) || len(g.viewLog) != batch {
				t.Fatalf("pending=%d: the pin will not extend the previous view by its batch (log %d)", pending, len(g.viewLog))
			}
			prev := g.view
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			vw := g.PinView()
			best = min(best, time.Since(t0))
			runtime.ReadMemStats(&m1)
			bytes = max(bytes, m1.TotalAlloc-m0.TotalAlloc)
			rebuilt := 0
			for i, blk := range vw.out.blocks {
				if blk != prev.out.blocks[i] {
					rebuilt++
				}
			}
			if rebuilt > batch {
				t.Fatalf("pending=%d: %d row blocks rebuilt for a %d-edge batch", pending, rebuilt, batch)
			}
		}
		return bytes, best
	}
	smallBytes, smallTime := pinCost(1_000 - 5*batch/2)
	largeBytes, largeTime := pinCost(15_000)
	if adds, removes := g.PendingDelta(); adds+removes < 16_000 {
		t.Fatalf("only %d edges pending at the large pin", adds+removes)
	}
	t.Logf("pin after a %d-flip batch: %d B, %v at ~1k pending; %d B, %v at ~16k pending",
		batch, smallBytes, smallTime, largeBytes, largeTime)
	if largeBytes > 4*smallBytes {
		t.Errorf("pin at 16k pending allocates %d B, more than 4x the %d B at 1k pending", largeBytes, smallBytes)
	}
	if largeTime > 6*smallTime {
		t.Errorf("pin at 16k pending takes %v, more than 6x the %v at 1k pending", largeTime, smallTime)
	}
}
