// Package graph implements the paper's graph-database models — db-graphs
// (edge-labeled directed graphs), vl-graphs (vertex-labeled) and
// evl-graphs (vertex-and-edge-labeled) — together with paths, seeded
// workload generators and plain-text / DOT serialization.
package graph

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/automaton"
)

// Edge is a labeled directed edge of a db-graph.
type Edge struct {
	From  int
	Label byte
	To    int
}

// Graph is a db-graph: a finite directed graph whose edges carry
// single-byte labels. Vertices are dense integers in [0, NumVertices()).
// The zero value is an empty graph ready to use.
//
// The intended lifecycle is build-then-freeze: construct with AddVertex
// / AddEdge, then query. Derived data that a query would otherwise
// recompute per call — the alphabet and the CSR snapshot (see Freeze)
// — is cached on first use and invalidated by mutation, so a warm graph
// answers these in O(1).
//
// Mutating an already-frozen graph does not discard the frozen CSR:
// mutations accumulate in a net delta (added edges, removed-edge
// tombstones) against the last snapshot, which with it answers whether
// an edge is present, and the next Freeze merges the delta into it
// instead of rebuilding from scratch — see delta.go. Each
// mutation still advances the Epoch, so epoch-keyed caches built on top
// (rspq.Engine) invalidate exactly as before.
//
// The per-vertex adjacency lists (OutEdges / InEdges) are the storage
// until the first Freeze, in insertion order minus removals, and they
// survive a Freeze and a PinView. From then on they are a cache: the
// first effective write to the frozen graph drops them, so a write costs
// the delta entry of its edge and never a row scan, and the next
// OutEdges / InEdges / Edges rebuilds them once from the base and the
// delta, each row in (label, neighbour) order. No query, write, PinView
// or Freeze reads them after the drop.
type Graph struct {
	out   [][]Edge // nil once a write to the frozen graph dropped them
	in    [][]Edge
	n     int
	edges int
	names []string // optional display names, "" when unset

	// Lazily built caches, dropped on mutation.
	alpha      automaton.Alphabet
	alphaValid bool
	csr        *CSR

	// labelCount tracks how many edges carry each label, so the
	// alphabet is derivable in O(256) after any mutation instead of an
	// O(E) rescan.
	labelCount [256]int

	// Incremental-freeze state (delta.go): the CSR the pending delta is
	// relative to, the net delta since csrBase was built — true for an
	// edge the base lacks, false for a tombstoned base edge — with its
	// counts, and the freeze counters. csrBase == nil means the next
	// Freeze rebuilds from scratch.
	csrBase       *CSR
	delta         map[edgeKey]bool
	deltaAdds     int
	deltaDels     int
	deltaNewLabel bool // some pending add carries a label absent from csrBase
	fullBuilds    atomic.Uint64
	incBuilds     atomic.Uint64

	// Freeze telemetry (delta.go accessors): cumulative and
	// most-recent build wall time, and the delta sizes (adds +
	// removes) those builds absorbed. Atomic so a metrics scrape may
	// read them while a background compaction freezes.
	freezeNanos     atomic.Uint64
	lastFreezeNanos atomic.Uint64
	freezeDelta     atomic.Uint64
	lastFreezeDelta atomic.Uint64

	// view is the most recently pinned read snapshot (view.go) — current
	// while its epoch is the graph's — and viewLog every edge an
	// effective AddEdge/RemoveEdge touched since, so the next PinView
	// extends view's overlay by that batch instead of rebuilding it from
	// the net delta. Both are dropped when the base changes and when the
	// log outgrows the net delta (logDelta).
	view    *View
	viewLog []Edge

	// epoch counts mutations (see Epoch). It is atomic so long-lived
	// engines may poll it for staleness without synchronizing with the
	// mutator; everything else on the graph keeps the documented
	// contract that mutations must not race queries.
	epoch atomic.Uint64
}

// invalidate drops the caches a mutation may falsify and advances the
// mutation epoch. The last frozen CSR survives as the merge base for
// the next incremental Freeze, and the last pinned view — stale from
// here on, by its epoch — as what the next pin extends.
func (g *Graph) invalidate() {
	g.alpha = nil
	g.alphaValid = false
	g.csr = nil
	g.epoch.Add(1)
}

// logDelta records that an effective mutation touched e since g.view
// was pinned. Once the log is longer than the net delta (edges toggled
// back and forth, or many writes and no read) replaying it costs more
// than sorting the delta: it is forgotten with the view it extends.
func (g *Graph) logDelta(e Edge) {
	if g.view == nil {
		return
	}
	g.viewLog = append(g.viewLog, e)
	if len(g.viewLog) > g.deltaAdds+g.deltaDels+deltaMergeFloor {
		g.view, g.viewLog = nil, nil
	}
}

// Epoch returns the graph's monotonic mutation counter: it advances on
// every structural change (AddVertex / AddEdge / …) and never
// otherwise, so any datum derived from the graph — a CSR snapshot, a
// pruning table, a cached query result — can be keyed by the epoch it
// was built under and goes stale automatically when the graph mutates,
// with no explicit purge calls. Unlike the rest of the Graph API,
// Epoch is safe to call concurrently with mutations.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	return &Graph{
		out:   make([][]Edge, n),
		in:    make([][]Edge, n),
		n:     n,
		names: make([]string, n),
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex appends an isolated vertex and returns its id. The CSR
// delta overlay records only the row-count growth. On a frozen graph it
// drops the adjacency lists, as a write does.
func (g *Graph) AddVertex() int {
	g.invalidate()
	if g.csrBase == nil {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	} else {
		g.out, g.in = nil, nil
	}
	g.names = append(g.names, "")
	g.n++
	return g.n - 1
}

// AddNamedVertex appends a vertex carrying a display name.
func (g *Graph) AddNamedVertex(name string) int {
	v := g.AddVertex()
	g.names[v] = name
	return v
}

// Name returns the display name of v (its id rendered in decimal when no
// name was assigned).
func (g *Graph) Name(v int) string {
	if g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// AddEdge inserts the labeled edge (from, label, to). Parallel edges with
// different labels are allowed; inserting the exact same edge twice is a
// no-op, matching the set semantics E ⊆ V×Σ×V of the paper.
//
// Before the first Freeze presence is a scan of from's out-edges and the
// edge is appended to both lists. On a frozen graph presence is a binary
// search in the base CSR plus one lookup in the net delta (delta.go),
// where the insertion is recorded, so the next Freeze merges it into the
// existing CSR instead of rebuilding; the adjacency lists are dropped,
// not edited.
func (g *Graph) AddEdge(from int, label byte, to int) {
	if g.csrBase == nil {
		if !g.HasEdge(from, label, to) {
			g.link(from, label, to)
		}
		return
	}
	if k, listed, present := g.lookup(from, label, to); !present {
		g.toggleDelta(k, listed, true)
	}
}

// RemoveEdge deletes the labeled edge (from, label, to) and reports
// whether it was present; removing a missing edge (including one with
// out-of-range endpoints) is a no-op returning false, and does not
// advance the epoch.
//
// Presence is decided as in AddEdge. Before the first Freeze a present
// edge is deleted from both lists, keeping the order of the rest; on a
// frozen graph the removal is recorded in the net delta — a tombstone for
// a base edge, the end of a pending add otherwise — and no row is
// scanned.
func (g *Graph) RemoveEdge(from int, label byte, to int) bool {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return false
	}
	if g.csrBase == nil {
		return g.unlink(from, label, to)
	}
	k, listed, present := g.lookup(from, label, to)
	if present {
		g.toggleDelta(k, listed, false)
	}
	return present
}

// flip removes the edge when present and adds it otherwise, deciding its
// presence once.
func (g *Graph) flip(from int, label byte, to int) {
	if g.csrBase == nil {
		if !g.unlink(from, label, to) {
			g.link(from, label, to)
		}
		return
	}
	k, listed, present := g.lookup(from, label, to)
	g.toggleDelta(k, listed, !present)
}

// link appends an absent edge to both adjacency lists of a graph that
// was never frozen.
func (g *Graph) link(from int, label byte, to int) {
	e := Edge{From: from, Label: label, To: to}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.tally(e, true)
}

// unlink deletes the edge from both adjacency lists of a graph that was
// never frozen, shifting the rest so their order is kept, and reports
// whether it was there.
func (g *Graph) unlink(from int, label byte, to int) bool {
	oi := -1
	for i, e := range g.out[from] {
		if e.Label == label && e.To == to {
			oi = i
			break
		}
	}
	if oi < 0 {
		return false
	}
	e := g.out[from][oi]
	g.out[from] = append(g.out[from][:oi], g.out[from][oi+1:]...)
	for i, x := range g.in[to] {
		if x == e {
			g.in[to] = append(g.in[to][:i], g.in[to][i+1:]...)
			break
		}
	}
	g.tally(e, false)
	return true
}

// tally is the bookkeeping of an effective write of e, an add when
// added: it drops the caches the write falsifies and keeps the edge and
// label counts.
func (g *Graph) tally(e Edge, added bool) {
	g.invalidate()
	d := 1
	if !added {
		d = -1
	}
	g.edges += d
	g.labelCount[e.Label] += d
}

// AddWordEdge inserts a path of fresh intermediate vertices spelling the
// word w from `from` to `to`, implementing the paper's convention that
// "an edge labeled by a word w can be replaced with a path whose edges
// form the word w" (proof of Lemma 5). It returns the intermediate
// vertices created. Empty words are rejected.
func (g *Graph) AddWordEdge(from int, w string, to int) ([]int, error) {
	if w == "" {
		return nil, fmt.Errorf("graph: AddWordEdge requires a non-empty word")
	}
	var mids []int
	cur := from
	for i := 0; i < len(w); i++ {
		next := to
		if i < len(w)-1 {
			next = g.AddVertex()
			mids = append(mids, next)
		}
		g.AddEdge(cur, w[i], next)
		cur = next
	}
	return mids, nil
}

// OutEdges returns the edges leaving v: in insertion order (minus
// removals) on a graph that was never written to after a Freeze, in
// (label, target) order once one was. The returned slice must not be
// modified. After a write to a frozen graph the first OutEdges, InEdges
// or Edges rebuilds the lists, so it must be externally synchronized
// with other readers, like the first PinView after a mutation.
func (g *Graph) OutEdges(v int) []Edge { return g.lists()[v] }

// InEdges returns the edges entering v, in the order OutEdges documents
// (by (label, source) once rebuilt). The returned slice must not be
// modified.
func (g *Graph) InEdges(v int) []Edge {
	g.lists()
	return g.in[v]
}

// listsKept reports whether the adjacency lists hold a row per vertex:
// always before the first Freeze, and after it until a write drops them.
func (g *Graph) listsKept() bool { return len(g.out) == g.n }

// lists returns the out-lists, first rebuilding both sides when a write
// to the frozen graph dropped them: from the current edge set (current),
// each row in (label, neighbour) order.
func (g *Graph) lists() [][]Edge {
	if !g.listsKept() {
		g.out, g.in = listsOf(g.current(), g.edges)
	}
	return g.out
}

// listsOf carves the adjacency lists of the m-edge graph a out of two
// contiguous arenas, O(1) allocations instead of one per row. The
// three-index slices pin each row's capacity to its arena region, so an
// append to one row cannot grow into its neighbour.
func listsOf(a adjacency, m int) (out, in [][]Edge) {
	n, L := a.NumVertices(), a.NumLabels()
	out, in = make([][]Edge, n), make([][]Edge, n)
	outArena := make([]Edge, 0, m)
	inArena := make([]Edge, 0, m)
	for v := 0; v < n; v++ {
		outStart, inStart := len(outArena), len(inArena)
		for lid := 0; lid < L; lid++ {
			label := a.Label(lid)
			for _, to := range a.OutWithID(v, lid) {
				outArena = append(outArena, Edge{From: v, Label: label, To: int(to)})
			}
			for _, from := range a.InWithID(v, lid) {
				inArena = append(inArena, Edge{From: int(from), Label: label, To: v})
			}
		}
		if end := len(outArena); end > outStart {
			out[v] = outArena[outStart:end:end]
		}
		if end := len(inArena); end > inStart {
			in[v] = inArena[inStart:end:end]
		}
	}
	return out, in
}

// adjacency is what a CSR and a View share: the label-bucketed rows the
// list rebuild and the whole-graph passes read once the lists are
// dropped.
type adjacency interface {
	NumVertices() int
	NumLabels() int
	Label(lid int) byte
	OutWithID(v, lid int) []int32
	InWithID(v, lid int) []int32
}

// current returns the graph's edge set in CSR form without reading the
// lists, for a graph whose lists a frozen-graph write dropped: the frozen
// snapshot, else the view pinned at this epoch, else — built for the
// caller and not kept — the base merged with the net delta, or a full
// build when the delta may carry a label the base lacks.
func (g *Graph) current() adjacency {
	switch {
	case g.csr != nil:
		return g.csr
	case g.view != nil && g.view.epoch == g.Epoch():
		return g.view
	case !g.deltaNewLabel:
		return g.mergeCSR()
	default:
		return buildCSR(g)
	}
}

// rows reads the out-rows of the current edge set for a whole-graph
// pass: the lists while they are kept, current once they are dropped —
// so no pass rebuilds them.
type rows struct {
	lists [][]Edge
	a     adjacency
}

func (g *Graph) rows() rows {
	if g.listsKept() {
		return rows{lists: g.out}
	}
	return rows{a: g.current()}
}

// out yields v's out-edges.
func (r rows) out(v int) iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		if r.a == nil {
			for _, e := range r.lists[v] {
				if !yield(e) {
					return
				}
			}
			return
		}
		for lid := range r.a.NumLabels() {
			label := r.a.Label(lid)
			for _, to := range r.a.OutWithID(v, lid) {
				if !yield(Edge{From: v, Label: label, To: int(to)}) {
					return
				}
			}
		}
	}
}

// HasEdge reports whether the exact edge exists: a scan of from's
// out-edges before the first Freeze, the base CSR and the net delta
// after it.
func (g *Graph) HasEdge(from int, label byte, to int) bool {
	if g.csrBase != nil {
		_, _, present := g.lookup(from, label, to)
		return present
	}
	for _, e := range g.out[from] {
		if e.Label == label && e.To == to {
			return true
		}
	}
	return false
}

// Alphabet returns the set of labels used by the graph's edges. The
// result is derived from per-label edge counts maintained by AddEdge /
// RemoveEdge, so recomputing it after a mutation is O(256) rather than
// an O(E) rescan; it is cached until the next mutation. The returned
// slice must not be modified.
func (g *Graph) Alphabet() automaton.Alphabet {
	if g.alphaValid {
		return g.alpha
	}
	var labels []byte
	for b, c := range g.labelCount {
		if c > 0 {
			labels = append(labels, byte(b))
		}
	}
	g.alpha = automaton.NewAlphabet(labels...)
	g.alphaValid = true
	return g.alpha
}

// Edges returns all edges in deterministic order. Like OutEdges, it
// rebuilds the lists after a write to a frozen graph.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, row := range g.lists() {
		out = append(out, row...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// IsAcyclic reports whether the graph is a DAG (ignoring labels): one
// O(V+E) TopoOrder per call, nothing cached. No query dispatch reads it
// — the tier depends on the language alone — so its callers are the
// RPQ collapse (DAG) and a forced AlgoDAG tier.
func (g *Graph) IsAcyclic() bool { return g.TopoOrder() != nil }

// TopoOrder returns a topological order of a DAG, or nil if the graph has
// a cycle. It is Kahn's algorithm over the out-rows (rows), with the
// order itself as the queue.
func (g *Graph) TopoOrder() []int {
	r := g.rows()
	indeg := make([]int, g.n)
	for v := range g.n {
		for e := range r.out(v) {
			indeg[e.To]++
		}
	}
	order := make([]int, 0, g.n)
	for v := range g.n {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for e := range r.out(order[i]) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != g.n {
		return nil
	}
	return order
}

// String renders a compact description.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s -%c-> %s\n", g.Name(e.From), e.Label, g.Name(e.To))
	}
	return b.String()
}
