package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// This file pins the cost and the order of the storage before the first
// Freeze (edgelog.go): the heap a loaded graph holds per edge, the
// allocations of a text load, the index against a set under churn, and
// insertion order for concurrent list readers.

// TestBuildHeapPerEdge pins what a 1M-edge graph holds: ≤ 48 heap bytes
// per edge as built (a 12-byte log record and an index at most half
// full, which may just have doubled), and ≤ 32 once frozen (the log and
// the CSR's two int32 payloads; the index is dropped). Rows of 24-byte
// edges on both sides held about 77 (85 once frozen).
func TestBuildHeapPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	g := RandomOutRegular(12_500, []byte("ab"), 80, 1)
	perEdge := func() float64 { return float64(heap()-h0) / float64(g.NumEdges()) }
	if b := perEdge(); b > 48 {
		t.Errorf("a never-frozen graph holds %.1f heap bytes per edge, want ≤ 48", b)
	}
	g.Freeze()
	if b := perEdge(); b > 32 {
		t.Errorf("a frozen graph holds %.1f heap bytes per edge, want ≤ 32", b)
	}
	runtime.KeepAlive(g)
}

// TestFrozenPassReadsCSR pins that a whole-graph pass over a graph not
// written since its Freeze reads the CSR, not rows carved from the kept
// log: IsAcyclic allocates its TopoOrder's 16·n bytes, where rows of
// 24-byte edges would add about 24 per edge.
func TestFrozenPassReadsCSR(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	const n = 10_000
	g := RandomOutRegular(n, []byte("ab"), 8, 1)
	g.Freeze()
	g.IsAcyclic()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.IsAcyclic()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 16*n+64<<10 {
		t.Errorf("IsAcyclic on a frozen graph allocated %d B, want ≤ 16·n + 64 KiB = %d", b, 16*n+64<<10)
	}
	if _, kept := g.inOrder(); !kept || g.lists.Load() != nil {
		t.Error("the pass must keep the insertion order and build no lists")
	}
}

// TestReadTextAllocs pins that a text load allocates per doubling of its
// storage, not per line: 64 times the lines cost at most 16 more
// allocations (the log and the index double six times each).
func TestReadTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	allocs := func(n, outDeg int) float64 {
		var buf bytes.Buffer
		if err := RandomOutRegular(n, []byte("abc"), outDeg, 1).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadText(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000, 1), allocs(16_000, 4)
	if large > small+16 {
		t.Errorf("ReadText of 64k lines: %.0f allocations, of 1k lines: %.0f", large, small)
	}
}

// TestEdgeLogChurn drives the log and its index through adds, removals,
// flips and re-adds against a set kept beside the graph — enough
// removals to compact the log many times, and ids at the ends of the
// range — checking presence, the count and, after every batch, that the
// index holds exactly the live records.
func TestEdgeLogChurn(t *testing.T) {
	const n = 64
	g := New(n)
	set := map[Edge]bool{}
	rng := rand.New(rand.NewSource(5))
	randEdge := func() Edge {
		return Edge{From: rng.Intn(n), Label: "ab"[rng.Intn(2)], To: rng.Intn(n)}
	}
	for step := range 40_000 {
		e := randEdge()
		switch step / 10_000 % 2 {
		case 0: // mostly adds
			if rng.Intn(4) == 0 {
				if g.RemoveEdge(e.From, e.Label, e.To) != set[e] {
					t.Fatalf("step %d: RemoveEdge%v = %v, set has it = %v", step, e, !set[e], set[e])
				}
				delete(set, e)
			} else {
				g.AddEdge(e.From, e.Label, e.To)
				set[e] = true
			}
		default: // mostly removals and flips
			if rng.Intn(4) == 0 {
				FlipEdges(g, []Edge{e})
				set[e] = !set[e]
				if !set[e] {
					delete(set, e)
				}
			} else {
				g.RemoveEdge(e.From, e.Label, e.To)
				delete(set, e)
			}
		}
		if g.HasEdge(e.From, e.Label, e.To) != set[e] {
			t.Fatalf("step %d: HasEdge%v = %v, set has it = %v", step, e, !set[e], set[e])
		}
		if step%997 == 0 {
			checkLogIndex(t, g, set)
		}
	}
	checkLogIndex(t, g, set)
	for _, e := range []Edge{{-1, 'a', 0}, {0, 'a', n}, {n, 'a', 0}} {
		if g.HasEdge(e.From, e.Label, e.To) || g.RemoveEdge(e.From, e.Label, e.To) {
			t.Errorf("out-of-range edge %v reads as present", e)
		}
	}
}

// TestFrozenLogChurn drives a frozen graph's log — the net delta and the
// pinned view's batch — through 100k flips over a pool of 1k edges, half
// of them base edges, pinning after every 320 flips and freezing every
// 20k. After every write HasEdge, PendingDelta and NumEdges match a set
// kept beside the graph, and the log holds at most twice the net delta
// plus the floor and one batch; every pin equals a from-scratch build.
// The log must be compacted while a view is pinned, keeping its batch.
func TestFrozenLogChurn(t *testing.T) {
	const n, batch = 2000, 320
	labels := []byte("ab")
	g := RandomOutRegular(n, labels, 8, 1)
	g.Freeze()
	rng := rand.New(rand.NewSource(3))
	pool := make([]Edge, 1000)
	for i := range pool {
		if i%2 == 0 {
			es := g.OutEdges(rng.Intn(n))
			pool[i] = es[rng.Intn(len(es))]
		} else {
			pool[i] = Edge{From: rng.Intn(n), Label: labels[rng.Intn(2)], To: rng.Intn(n)}
		}
	}
	cur, base := map[Edge]bool{}, map[Edge]bool{}
	for _, e := range pool {
		cur[e] = g.HasEdge(e.From, e.Label, e.To)
		base[e] = cur[e]
	}
	edges, adds, removes := g.NumEdges(), 0, 0
	pins, extended, pinnedCompactions := 0, 0, 0
	for step := 1; step <= 100_000; step++ {
		e := pool[rng.Intn(len(pool))]
		before := len(g.log)
		FlipEdges(g, []Edge{e})
		cur[e] = !cur[e]
		d := 1
		if !cur[e] {
			d = -1
		}
		edges += d
		if base[e] {
			removes -= d
		} else {
			adds += d
		}
		if g.HasEdge(e.From, e.Label, e.To) != cur[e] || g.NumEdges() != edges {
			t.Fatalf("step %d: HasEdge%v = %v, NumEdges %d; the set says %v, %d",
				step, e, !cur[e], g.NumEdges(), cur[e], edges)
		}
		if a, r := g.PendingDelta(); a != adds || r != removes {
			t.Fatalf("step %d: PendingDelta (%d,%d), the set says (%d,%d)", step, a, r, adds, removes)
		}
		if len(g.log) > 2*(adds+removes)+deltaMergeFloor+batch {
			t.Fatalf("step %d: the log holds %d records for a delta of %d", step, len(g.log), adds+removes)
		}
		if g.view != nil && len(g.log) < before {
			pinnedCompactions++
		}
		switch {
		case step%20_000 == 0:
			g.Freeze()
			clear(base)
			for _, e := range pool {
				base[e] = cur[e]
			}
			adds, removes = 0, 0
		case step%batch == 0:
			if willExtend(g) {
				extended++
			}
			checkViewsEqual(t, g.PinView(), cloneForScratch(g).PinView())
			pins++
		}
	}
	t.Logf("%d pins, %d extended; %d compactions under a pinned view", pins, extended, pinnedCompactions)
	if extended < pins/2 || pinnedCompactions == 0 {
		t.Fatalf("churn is vacuous: %d of %d pins extended, %d compactions under a pinned view",
			extended, pins, pinnedCompactions)
	}
}

// checkLogIndex asserts that g's edges are set, that the index holds
// exactly its live log records, each reachable by a probe, at a load of
// at most ½, and that dead records do not outnumber live ones.
func checkLogIndex(t *testing.T, g *Graph, set map[Edge]bool) {
	t.Helper()
	if g.NumEdges() != len(set) {
		t.Fatalf("%d edges, set %d", g.NumEdges(), len(set))
	}
	live := 0
	for _, r := range g.log {
		if !r.dead {
			live++
			if !set[r.edge()] {
				t.Fatalf("live record %v is not in the set", r.edge())
			}
			if _, _, found := g.probe(r.from, r.to, r.label); !found {
				t.Fatalf("live record %v is not found by a probe", r.edge())
			}
		}
	}
	used := 0
	for _, s := range g.index {
		if s != 0 {
			used++
		}
	}
	if live != len(set) || used != live || 2*used > len(g.index) || g.dead > live {
		t.Fatalf("%d live records, %d dead, %d of %d slots used, set %d", live, g.dead, used, len(g.index), len(set))
	}
}

// TestConcurrentListReads pins that the lists of a frozen graph nobody
// writes are a race-free cache (run under -race): 8 goroutines read
// OutEdges, InEdges and Edges at once, the first reads included, and
// all get insertion order minus removals.
func TestConcurrentListReads(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(9))
	g, o := New(n), newListOracle(n)
	for range 3000 {
		e := Edge{From: rng.Intn(n), Label: "abc"[rng.Intn(3)], To: rng.Intn(n)}
		g.AddEdge(e.From, e.Label, e.To)
		o.add(e)
	}
	for _, e := range o.edges()[:300] {
		g.RemoveEdge(e.From, e.Label, e.To)
		o.remove(e)
	}
	g.Freeze()
	want := slices.SortedFunc(slices.Values(o.edges()), func(x, y Edge) int {
		if x.From != y.From {
			return x.From - y.From
		}
		if x.To != y.To {
			return x.To - y.To
		}
		return int(x.Label) - int(y.Label)
	})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				v := (i + 25*w) % n
				if !slices.Equal(g.OutEdges(v), o.out[v]) || !slices.Equal(g.InEdges(v), o.in[v]) {
					errs <- "a row is not in insertion order"
					return
				}
			}
			if !slices.Equal(g.Edges(), want) {
				errs <- "Edges is not the edge set in (from, to, label) order"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
