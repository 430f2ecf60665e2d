package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file holds the mutators to a list oracle: every edge set the
// graph reaches through AddVertex / AddEdge / RemoveEdge / FlipEdges,
// frozen or not, must answer presence, counts, the pending delta, the
// adjacency order and the pinned views as the oracle does, and every
// Freeze must produce the CSR a from-scratch build of the same edges
// produces.

// listOracle is a graph as plain insertion-ordered adjacency lists, plus
// the edge set of the last base (nil before the first freeze).
type listOracle struct {
	out, in [][]Edge
	base    map[Edge]bool
}

func newListOracle(n int) *listOracle {
	return &listOracle{out: make([][]Edge, n), in: make([][]Edge, n)}
}

func (o *listOracle) has(e Edge) bool { return slices.Contains(o.out[e.From], e) }

func (o *listOracle) add(e Edge) {
	if !o.has(e) {
		o.out[e.From] = append(o.out[e.From], e)
		o.in[e.To] = append(o.in[e.To], e)
	}
}

func (o *listOracle) remove(e Edge) {
	o.out[e.From] = slices.DeleteFunc(o.out[e.From], func(x Edge) bool { return x == e })
	o.in[e.To] = slices.DeleteFunc(o.in[e.To], func(x Edge) bool { return x == e })
}

func (o *listOracle) flip(e Edge) {
	if o.has(e) {
		o.remove(e)
	} else {
		o.add(e)
	}
}

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
// order.
func checkAdjacency(t *testing.T, g *Graph, o *listOracle, when string) {
	t.Helper()
	if g.NumVertices() != len(o.out) {
		t.Fatalf("%s: %d vertices, oracle %d", when, g.NumVertices(), len(o.out))
	}
	for v := range o.out {
		if !slices.Equal(g.OutEdges(v), o.out[v]) || !slices.Equal(g.InEdges(v), o.in[v]) {
			t.Fatalf("%s: vertex %d: out %v in %v, oracle out %v in %v",
				when, v, g.OutEdges(v), g.InEdges(v), o.out[v], o.in[v])
		}
	}
}

var fuzzLabels = []byte{'a', 'b', 'c', 'd'}

// FuzzGraphMutations decodes its input into mutations of a graph with at
// most 16 vertices and labels {a,b,c} — plus an occasional d, a label
// the base alphabet lacks — and checks the graph against listOracle
// after every one. The first byte sets the vertex count; each further
// three bytes are one op: the low nibble of the first picks the call,
// its high nibble the label (d one time in sixteen), and the other two
// the endpoints.
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
					o.out, o.in = append(o.out, nil), append(o.in, nil)
				}
			case k == 13:
				desc = "Freeze"
				c := g.Freeze()
				if want := rebuildOracle(g); !csrEqual(c, want) {
					t.Fatalf("step %d: Freeze differs from a from-scratch build of Edges()", step)
				}
				o.base = o.set()
			default:
				desc = "PinView"
				pinned = g.PinView()
				if !pinned.Overlay() { // a pass-through view sits on the current edge set
					o.base = o.set()
				}
				pinnedAt = &listOracle{out: slices.Clone(o.out), in: slices.Clone(o.in)}
				for v := range o.out {
					pinnedAt.out[v], pinnedAt.in[v] = slices.Clone(o.out[v]), slices.Clone(o.in[v])
				}
			}
			when := fmt.Sprintf("step %d (%s)", step, desc)
			checkAdjacency(t, g, o, when)
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
// order after the build, after Freeze and after PinView; a removal keeps
// the order of the rest, before the first freeze and after it; an add
// appends. Callers read this order (the benchmark's source selection
// among them, whose workload digests rest on it).
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
	checkAdjacency(t, g, o, "after build")
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
	checkAdjacency(t, g, o, "after removals before the first freeze")
	g.Freeze()
	checkAdjacency(t, g, o, "after Freeze")
	g.PinView()
	checkAdjacency(t, g, o, "after PinView")
	removeSome(40)
	checkAdjacency(t, g, o, "after removals on a frozen graph")
	for i := 0; i < 40; i++ {
		e := randEdge()
		g.AddEdge(e.From, e.Label, e.To)
		o.add(e)
		e = randEdge()
		FlipEdges(g, []Edge{e})
		o.flip(e)
	}
	checkAdjacency(t, g, o, "after adds and flips on a frozen graph")
	g.PinView()
	checkAdjacency(t, g, o, "after an overlay PinView")
	g.Freeze()
	checkAdjacency(t, g, o, "after the incremental Freeze")
	if _, inc := g.FreezeStats(); inc == 0 {
		t.Fatal("the second Freeze did not merge: the frozen-graph path was not exercised")
	}
}
