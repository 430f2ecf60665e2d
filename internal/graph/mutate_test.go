package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file holds the mutators to a list oracle: every edge set the
// graph reaches through AddVertex / AddEdge / RemoveEdge / FlipEdges,
// frozen or not, must answer presence, counts, the pending delta, the
// adjacency order and the pinned views as the oracle does, and every
// Freeze must produce the CSR a from-scratch build of the oracle's edges
// produces. The oracle also knows when the graph must hold no adjacency
// lists: from a write to the frozen graph until the next read of them.

// listOracle is a graph as plain insertion-ordered adjacency lists, plus
// the edge set of the last base (nil before the first freeze). sorted
// records that the graph has had a write since its first freeze, so its
// rows read back in (label, neighbour) order; dropped that such a write
// came after the graph's lists were last read, so it must hold none.
type listOracle struct {
	out, in         [][]Edge
	base            map[Edge]bool
	sorted, dropped bool
}

func newListOracle(n int) *listOracle {
	return &listOracle{out: make([][]Edge, n), in: make([][]Edge, n)}
}

func (o *listOracle) has(e Edge) bool { return slices.Contains(o.out[e.From], e) }

// wrote records an effective write.
func (o *listOracle) wrote() {
	if o.base != nil {
		o.sorted, o.dropped = true, true
	}
}

func (o *listOracle) add(e Edge) {
	if !o.has(e) {
		o.out[e.From] = append(o.out[e.From], e)
		o.in[e.To] = append(o.in[e.To], e)
		o.wrote()
	}
}

func (o *listOracle) remove(e Edge) {
	if o.has(e) {
		o.out[e.From] = slices.DeleteFunc(o.out[e.From], func(x Edge) bool { return x == e })
		o.in[e.To] = slices.DeleteFunc(o.in[e.To], func(x Edge) bool { return x == e })
		o.wrote()
	}
}

func (o *listOracle) flip(e Edge) {
	if o.has(e) {
		o.remove(e)
	} else {
		o.add(e)
	}
}

func (o *listOracle) addVertex() {
	o.out, o.in = append(o.out, nil), append(o.in, nil)
	o.wrote()
}

// freeze records a Freeze, or a PinView that froze.
func (o *listOracle) freeze() { o.base = o.set() }

// edges returns the oracle's edges, row by row in insertion order.
func (o *listOracle) edges() []Edge { return slices.Concat(o.out...) }

// rows returns v's out- and in-edges in the order the graph must return
// them: insertion order, or once sorted, (label, target) and (label,
// source).
func (o *listOracle) rows(v int) (out, in []Edge) {
	if !o.sorted {
		return o.out[v], o.in[v]
	}
	out, in = slices.Clone(o.out[v]), slices.Clone(o.in[v])
	slices.SortFunc(out, func(x, y Edge) int { return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.To, y.To)) })
	slices.SortFunc(in, func(x, y Edge) int { return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.From, y.From)) })
	return out, in
}

// tracked is a graph with a listOracle kept beside it: every mutation
// goes to both, so the oracles a test compares against are built from
// its own edge list, never from the adjacency of the graph under test.
type tracked struct {
	*Graph
	o *listOracle
}

// track seeds the oracle from g's edges as built, before any freeze.
func track(g *Graph) *tracked {
	o := newListOracle(g.NumVertices())
	for _, e := range g.Edges() {
		o.add(e)
	}
	return &tracked{g, o}
}

func (t *tracked) AddEdge(from int, label byte, to int) {
	t.Graph.AddEdge(from, label, to)
	t.o.add(Edge{From: from, Label: label, To: to})
}

func (t *tracked) RemoveEdge(from int, label byte, to int) bool {
	if n := len(t.o.out); from >= 0 && from < n && to >= 0 && to < n {
		t.o.remove(Edge{From: from, Label: label, To: to})
	}
	return t.Graph.RemoveEdge(from, label, to)
}

func (t *tracked) AddVertex() int {
	t.o.addVertex()
	return t.Graph.AddVertex()
}

func (t *tracked) flip(es []Edge) {
	FlipEdges(t.Graph, es)
	for _, e := range es {
		t.o.flip(e)
	}
}

// oracle is the CSR a from-scratch build of the oracle's edges produces.
func (t *tracked) oracle() *CSR { return rebuildOracle(t.o) }

func (o *listOracle) set() map[Edge]bool {
	s := make(map[Edge]bool)
	for _, es := range o.out {
		for _, e := range es {
			s[e] = true
		}
	}
	return s
}

// pending is the delta the graph must report: the edges gained and lost
// since the base.
func (o *listOracle) pending() (adds, removes int) {
	if o.base == nil {
		return 0, 0
	}
	cur := o.set()
	for e := range cur {
		if !o.base[e] {
			adds++
		}
	}
	for e := range o.base {
		if !cur[e] {
			removes++
		}
	}
	return adds, removes
}

// sortedTargets returns the targets (out) or sources (in) of v's edges
// carrying label, ascending — what a CSR bucket holds.
func sortedTargets(es []Edge, label byte, out bool) []int32 {
	var vs []int32
	for _, e := range es {
		if e.Label == label {
			if out {
				vs = append(vs, int32(e.To))
			} else {
				vs = append(vs, int32(e.From))
			}
		}
	}
	slices.Sort(vs)
	return vs
}

// checkAdjacency asserts that g's adjacency lists are the oracle's, in
// the order listOracle.rows gives, and that g holds lists exactly when
// the oracle says it must. With install the lists are read through
// OutEdges / InEdges, which rebuild dropped ones; without it dropped
// lists are compared as the rebuild would carve them, and must still be
// dropped afterwards — so the next step runs on a graph without lists.
func checkAdjacency(t *testing.T, g *Graph, o *listOracle, when string, install bool) {
	t.Helper()
	if g.NumVertices() != len(o.out) {
		t.Fatalf("%s: %d vertices, oracle %d", when, g.NumVertices(), len(o.out))
	}
	if _, kept := g.inOrder(); kept == o.sorted {
		t.Fatalf("%s: the graph keeps its insertion order = %v, oracle wrote to the frozen graph = %v", when, kept, o.sorted)
	}
	if o.dropped && g.lists.Load() != nil {
		t.Fatalf("%s: the graph holds lists no read asked for", when)
	}
	outs, ins := g.OutEdges, g.InEdges
	if o.dropped && !install {
		out, in := listsOf(g.current(), g.NumEdges())
		outs, ins = func(v int) []Edge { return out[v] }, func(v int) []Edge { return in[v] }
	}
	for v := range o.out {
		wantOut, wantIn := o.rows(v)
		if !slices.Equal(outs(v), wantOut) || !slices.Equal(ins(v), wantIn) {
			t.Fatalf("%s: vertex %d: out %v in %v, oracle out %v in %v",
				when, v, outs(v), ins(v), wantOut, wantIn)
		}
	}
	if o.dropped && !install && g.lists.Load() != nil {
		t.Fatalf("%s: comparing the carved lists installed them", when)
	}
	o.dropped = o.dropped && !install
}

var fuzzLabels = []byte{'a', 'b', 'c', 'd'}

// FuzzGraphMutations decodes its input into mutations of a graph with at
// most 16 vertices and labels {a,b,c} — plus an occasional d, a label
// the base alphabet lacks — and checks the graph against listOracle
// after every one. The first byte sets the vertex count; each further
// three bytes are one op: the low nibble of the first picks the call,
// its high nibble the label (d one time in sixteen), and the other two
// the endpoints. Every fourth step reads the adjacency through OutEdges
// and InEdges; the others compare it without rebuilding dropped lists,
// so a write to the frozen graph leaves the next op — a Freeze, a
// PinView, an AddVertex — to run on a graph without them.
func FuzzGraphMutations(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 13, 0, 0, 5, 1, 2, 9, 2, 3, 14, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%16
		g, o := New(n), newListOracle(n)
		var pinned *View
		var pinnedAt *listOracle
		data = data[1:]
		for step := 0; len(data) >= 3 && step < 256; step++ {
			op, a, b := data[0], int(data[1]), int(data[2])
			data = data[3:]
			label := fuzzLabels[min(int(op>>4)/5, 3)]
			e := Edge{From: a % len(o.out), Label: label, To: b % len(o.out)}
			var desc string
			switch k := op & 15; {
			case k < 5:
				desc = fmt.Sprintf("AddEdge%v", e)
				g.AddEdge(e.From, e.Label, e.To)
				o.add(e)
			case k < 9:
				desc = fmt.Sprintf("RemoveEdge%v", e)
				if got, want := g.RemoveEdge(e.From, e.Label, e.To), o.has(e); got != want {
					t.Fatalf("step %d: %s = %v, oracle %v", step, desc, got, want)
				}
				o.remove(e)
			case k < 12:
				back := Edge{From: e.To, Label: label, To: e.From}
				desc = fmt.Sprintf("FlipEdges[%v %v]", e, back)
				FlipEdges(g, []Edge{e, back})
				o.flip(e)
				o.flip(back)
			case k == 12:
				desc = "AddVertex"
				if len(o.out) < 16 {
					if v := g.AddVertex(); v != len(o.out) {
						t.Fatalf("step %d: AddVertex = %d, want %d", step, v, len(o.out))
					}
					o.addVertex()
				}
			case k == 13:
				desc = "Freeze"
				c := g.Freeze()
				if want := rebuildOracle(o); !csrEqual(c, want) {
					t.Fatalf("step %d: Freeze differs from a from-scratch build of the oracle's edges", step)
				}
				o.freeze()
			default:
				desc = "PinView"
				pinned = g.PinView()
				if !pinned.Overlay() { // a pass-through view sits on the current edge set
					o.freeze()
				}
				pinnedAt = &listOracle{out: slices.Clone(o.out), in: slices.Clone(o.in)}
				for v := range o.out {
					pinnedAt.out[v], pinnedAt.in[v] = slices.Clone(o.out[v]), slices.Clone(o.in[v])
				}
			}
			when := fmt.Sprintf("step %d (%s)", step, desc)
			checkAdjacency(t, g, o, when, step%4 == 3)
			cur := o.set()
			if g.NumEdges() != len(cur) {
				t.Fatalf("%s: NumEdges %d, oracle %d", when, g.NumEdges(), len(cur))
			}
			ga, gr := g.PendingDelta()
			if wa, wr := o.pending(); ga != wa || gr != wr {
				t.Fatalf("%s: PendingDelta (%d,%d), oracle (%d,%d)", when, ga, gr, wa, wr)
			}
			for from := range o.out {
				for to := range o.out {
					for _, l := range fuzzLabels {
						if x := (Edge{from, l, to}); g.HasEdge(from, l, to) != cur[x] {
							t.Fatalf("%s: HasEdge%v = %v, oracle %v", when, x, !cur[x], cur[x])
						}
					}
				}
			}
			if pinned != nil {
				checkPinned(t, pinned, pinnedAt, when)
			}
		}
	})
}

// checkPinned asserts that a held view still reads as the graph did when
// it was pinned.
func checkPinned(t *testing.T, vw *View, o *listOracle, when string) {
	t.Helper()
	if vw.NumVertices() != len(o.out) {
		t.Fatalf("%s: pinned view has %d vertices, oracle %d", when, vw.NumVertices(), len(o.out))
	}
	for v := range o.out {
		for _, l := range fuzzLabels {
			wantOut, wantIn := sortedTargets(o.out[v], l, true), sortedTargets(o.in[v], l, false)
			if vw.LabelID(l) < 0 {
				if len(wantOut)+len(wantIn) > 0 {
					t.Fatalf("%s: pinned view lacks label %c that vertex %d carries", when, l, v)
				}
				continue
			}
			if got := vw.OutWith(v, l); !equalInt32(got, wantOut) {
				t.Fatalf("%s: pinned OutWith(%d,%c) = %v, oracle %v", when, v, l, got, wantOut)
			}
			if got := vw.InWith(v, l); !equalInt32(got, wantIn) {
				t.Fatalf("%s: pinned InWith(%d,%c) = %v, oracle %v", when, v, l, got, wantIn)
			}
		}
	}
}

// TestAdjacencyOrderStable pins the order OutEdges and InEdges return: a
// graph built from an edge list returns each vertex's edges in insertion
// order after the build, after Freeze and after PinView, and a removal
// before the first freeze keeps the order of the rest. The benchmark's
// input digests rest on that order: its source planting reads InEdges
// (bench/small.go:176, bench/hot.go:80,86, bench/churn.go:116,120,131),
// each time on a freshly built graph that was never frozen or written
// to. A write to the frozen graph drops the lists, and the next read
// rebuilds them from the base and the delta, each row in (label,
// neighbour) order — the order asserted from then on, across further
// writes, pins and freezes.
func TestAdjacencyOrderStable(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(17))
	labels := []byte{'a', 'b', 'c'}
	randEdge := func() Edge {
		return Edge{From: rng.Intn(n), Label: labels[rng.Intn(3)], To: rng.Intn(n)}
	}
	g, o := New(n), newListOracle(n)
	for i := 0; i < 600; i++ {
		e := randEdge()
		g.AddEdge(e.From, e.Label, e.To)
		o.add(e)
	}
	checkAdjacency(t, g, o, "after build", true)
	// removeSome removes k present edges, each from the middle of its
	// row when the row has three or more.
	removeSome := func(k int) {
		for removed := 0; removed < k; {
			es := o.out[rng.Intn(n)]
			if len(es) == 0 {
				continue
			}
			e := es[len(es)/2]
			if !g.RemoveEdge(e.From, e.Label, e.To) {
				t.Fatalf("RemoveEdge%v of a present edge returned false", e)
			}
			o.remove(e)
			removed++
		}
	}
	removeSome(40)
	checkAdjacency(t, g, o, "after removals before the first freeze", true)
	g.Freeze()
	o.freeze()
	checkAdjacency(t, g, o, "after Freeze", true)
	g.PinView()
	checkAdjacency(t, g, o, "after PinView", true)
	if o.sorted {
		t.Fatal("the oracle expects the rebuilt order before any write to the frozen graph")
	}
	removeSome(40)
	if g.lists.Load() != nil || g.order != nil {
		t.Fatal("removals from the frozen graph kept its lists or its insertion order")
	}
	checkAdjacency(t, g, o, "after removals on a frozen graph", true)
	for i := 0; i < 40; i++ {
		e := randEdge()
		g.AddEdge(e.From, e.Label, e.To)
		o.add(e)
		e = randEdge()
		FlipEdges(g, []Edge{e})
		o.flip(e)
	}
	checkAdjacency(t, g, o, "after adds and flips on a frozen graph", true)
	g.PinView()
	checkAdjacency(t, g, o, "after an overlay PinView", true)
	g.Freeze()
	checkAdjacency(t, g, o, "after the incremental Freeze", true)
	if _, inc := g.FreezeStats(); inc == 0 {
		t.Fatal("the second Freeze did not merge: the frozen-graph path was not exercised")
	}
	for v := range n {
		if !slices.IsSortedFunc(g.OutEdges(v), func(x, y Edge) int {
			return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.To, y.To))
		}) {
			t.Fatalf("vertex %d: out-edges %v are not in (label, target) order", v, g.OutEdges(v))
		}
	}
}

// TestFrozenWritesKeepNoLists pins that a frozen graph's writes edit no
// adjacency list: 10k flips (one edge flipped back), an AddVertex, a
// PinView, a merging Freeze and an IsAcyclic recheck all run without
// the lists, which OutEdges, InEdges and Edges then rebuild to the edge
// set kept beside the graph; and a flip pair on an unpinned frozen graph
// allocates nothing.
func TestFrozenWritesKeepNoLists(t *testing.T) {
	labels := []byte("ab")
	g := RandomOutRegular(2000, labels, 80, 1)
	set := make(map[Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		set[e] = true
	}
	g.Freeze()
	rng := rand.New(rand.NewSource(2))
	flip := func(e Edge) {
		FlipEdges(g, []Edge{e})
		if set[e] {
			delete(set, e)
		} else {
			set[e] = true
		}
	}
	var back Edge
	for i := 0; i < 10_000; i++ {
		e := Edge{From: rng.Intn(2000), Label: labels[rng.Intn(2)], To: rng.Intn(2000)}
		if i == 100 {
			back = e
		}
		flip(e)
	}
	flip(back)
	if g.lists.Load() != nil || g.order != nil {
		t.Fatal("writes to the frozen graph kept its lists or its insertion order")
	}
	v := g.AddVertex()
	g.AddEdge(v, 'a', 0)
	set[Edge{From: v, Label: 'a', To: 0}] = true
	if !g.PinView().Overlay() {
		t.Fatal("the pin did not overlay the delta")
	}
	g.Freeze()
	if _, inc := g.FreezeStats(); inc != 1 {
		t.Fatalf("%d incremental freezes, want the one merge", inc)
	}
	g.RemoveEdge(v, 'a', 0) // a removal from a cyclic graph drops the verdict
	delete(set, Edge{From: v, Label: 'a', To: 0})
	if g.IsAcyclic() {
		t.Fatal("an 80-out-regular graph is cyclic")
	}
	if g.lists.Load() != nil || g.order != nil {
		t.Fatal("AddVertex, PinView, Freeze or IsAcyclic rebuilt the lists")
	}

	var out, in int
	for v := range g.NumVertices() {
		for _, e := range g.OutEdges(v) {
			if e.From != v || !set[e] {
				t.Fatalf("OutEdges(%d) holds %v, which the kept set lacks", v, e)
			}
			out++
		}
		for _, e := range g.InEdges(v) {
			if e.To != v || !set[e] {
				t.Fatalf("InEdges(%d) holds %v, which the kept set lacks", v, e)
			}
			in++
		}
	}
	es := g.Edges()
	for _, e := range es {
		if !set[e] {
			t.Fatalf("Edges holds %v, which the kept set lacks", e)
		}
	}
	if out != len(set) || in != len(set) || len(es) != len(set) || g.NumEdges() != len(set) {
		t.Fatalf("%d out-edges, %d in-edges, %d from Edges, NumEdges %d; the kept set has %d",
			out, in, len(es), g.NumEdges(), len(set))
	}

	present, absent := es[0], Edge{From: 0, Label: 'a', To: 0}
	if set[absent] {
		t.Fatal("the graph has a self-loop")
	}
	pairs := []Edge{present, present, absent, absent}
	if allocs := testing.AllocsPerRun(100, func() { FlipEdges(g, pairs) }); allocs != 0 {
		t.Fatalf("a flip pair on a frozen graph allocates %v times, want 0", allocs)
	}
}
