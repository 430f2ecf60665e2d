// Package graph implements the paper's graph-database models — db-graphs
// (edge-labeled directed graphs), vl-graphs (vertex-labeled) and
// evl-graphs (vertex-and-edge-labeled) — together with paths, seeded
// workload generators and plain-text / DOT serialization.
package graph

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
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
// / AddEdge, then query. The CSR snapshot (see Freeze) is cached on
// first use and invalidated by mutation, so a warm graph answers it in
// O(1); the alphabet is an O(256) pass over per-label edge counts.
//
// The writes go to one store, a log of 12-byte records plus a flat hash
// index over it (edgelog.go): AddEdge, RemoveEdge and HasEdge cost one
// index probe, and no per-vertex row exists. Before the first Freeze the
// log holds the edges in insertion order, so OutEdges / InEdges report
// insertion order minus removals. The first Freeze builds the CSR from
// it and drops it. Mutating a frozen graph does not discard the frozen
// CSR: the log then holds the net delta against the last snapshot
// (added edges, removed-edge tombstones), which with it answers whether
// an edge is present, and the next Freeze merges the delta into it
// instead of rebuilding from scratch — see delta.go. Each mutation still advances
// the Epoch, so epoch-keyed caches built on top (rspq.Engine) invalidate
// exactly as before.
//
// The per-vertex lists OutEdges / InEdges return are a cache on every
// graph: built on the first read, from the insertion-ordered log before
// the first Freeze and from the base and the delta after it (each row
// then in (label, neighbour) order), and dropped by any write and by the
// first Freeze. No query, write, PinView, Freeze or whole-graph pass
// (Edges, TopoOrder, EdgeSetEqual) builds them.
type Graph struct {
	n     int
	edges int
	names []string // optional display names, "" when unset; nil until one is set

	// The edge log and its index (edgelog.go): the edges before the
	// first Freeze, the net delta against csrBase after it. dead counts
	// the log's dead records, batchDead those from pinPos on while view
	// is pinned.
	log       []logEdge
	index     []uint64
	seed      uint64
	dead      int
	batchDead int

	// lists caches the per-vertex lists of OutEdges / InEdges, nil until
	// they are read and from any write on. Atomic, so concurrent first
	// reads of a graph nobody writes are race-free.
	lists atomic.Pointer[adjLists]

	// csr is the frozen snapshot (Freeze), dropped on mutation.
	csr *CSR

	// labelCount tracks how many edges carry each label, so the
	// alphabet is derived in O(256) (Alphabet) instead of an O(E) scan.
	labelCount [256]int

	// Incremental-freeze state (delta.go): the CSR the pending delta is
	// relative to, the counts of the delta (the log's live records), and
	// the freeze counters. csrBase == nil means the next Freeze rebuilds
	// from scratch.
	csrBase       *CSR
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
	// while its epoch is the graph's — and pinPos where the log ended
	// then: the records from there on are the batch the next PinView
	// extends view's overlay by instead of rebuilding it from the net
	// delta. view is dropped when the base changes and when the batch
	// outgrows the net delta (write).
	view   *View
	pinPos int

	// epoch counts mutations (see Epoch). It is atomic so long-lived
	// engines may poll it for staleness without synchronizing with the
	// mutator; everything else on the graph keeps the documented
	// contract that mutations must not race queries.
	epoch atomic.Uint64
}

// invalidate drops the caches a mutation may falsify, the lists and the
// frozen snapshot, and advances the mutation epoch. The last frozen CSR
// survives as the merge base for the next incremental Freeze, and the
// last pinned view — stale from here on, by its epoch — as what the next
// pin extends.
func (g *Graph) invalidate() {
	if g.lists.Load() != nil {
		g.lists.Store(nil)
	}
	g.csr = nil
	g.epoch.Add(1)
}

// Epoch returns the graph's monotonic mutation counter: it advances on
// every structural change (AddVertex / AddEdge / …) and never
// otherwise, so any datum derived from the graph — a CSR snapshot, a
// pruning table, a cached query result — can be keyed by the epoch it
// was built under and goes stale automatically when the graph mutates,
// with no explicit purge calls. Unlike the rest of the Graph API,
// Epoch is safe to call concurrently with mutations.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// New returns a graph with n isolated vertices. It allocates nothing
// per vertex: the edge log and its index grow with the edges. A
// negative n panics.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: New(%d): negative vertex count", n))
	}
	return &Graph{n: n}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex appends an isolated vertex and returns its id, in O(1). The
// CSR delta overlay records only the row-count growth.
func (g *Graph) AddVertex() int {
	g.invalidate()
	g.n++
	return g.n - 1
}

// AddNamedVertex appends a vertex carrying a display name.
func (g *Graph) AddNamedVertex(name string) int {
	v := g.AddVertex()
	if len(g.names) < g.n {
		g.names = append(g.names, make([]string, g.n-len(g.names))...)
	}
	g.names[v] = name
	return v
}

// Name returns the display name of v (its id rendered in decimal when no
// name was assigned).
func (g *Graph) Name(v int) string {
	if v < len(g.names) && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// AddEdge inserts the labeled edge (from, label, to). Parallel edges with
// different labels are allowed; inserting the exact same edge twice is a
// no-op, matching the set semantics E ⊆ V×Σ×V of the paper. An endpoint
// outside [0, NumVertices()) panics, naming the edge.
//
// Presence is one probe of the log's index (edgelog.go), plus, on a
// frozen graph whose delta does not hold the edge, a binary search in
// the base CSR. An absent edge is appended to the log — on a frozen graph
// as a pending add, or as the end of a tombstone — so the next Freeze
// merges it into the existing CSR instead of rebuilding. No per-vertex
// row is read or written.
func (g *Graph) AddEdge(from int, label byte, to int) {
	g.mustInRange(from, label, to)
	g.write(from, label, to, true, false)
}

// RemoveEdge deletes the labeled edge (from, label, to) and reports
// whether it was present; removing a missing edge (including one with
// out-of-range endpoints) is a no-op returning false, and does not
// advance the epoch.
//
// Presence is decided as in AddEdge. A removal marks the edge's record
// dead — the end of a pending add on a frozen graph — or, for a base
// edge, appends a tombstone record (the log is compacted once dead
// records outnumber live ones).
func (g *Graph) RemoveEdge(from int, label byte, to int) bool {
	return g.inRange(from, to) && g.write(from, label, to, false, true)
}

// flip removes the edge when present and adds it otherwise, deciding its
// presence once.
func (g *Graph) flip(from int, label byte, to int) {
	g.mustInRange(from, label, to)
	g.write(from, label, to, true, true)
}

// mustInRange panics, naming the edge, when an endpoint is not a vertex.
func (g *Graph) mustInRange(from int, label byte, to int) {
	if !g.inRange(from, to) {
		panic(fmt.Sprintf("graph: edge %v has an endpoint outside [0, %d)", Edge{From: from, Label: label, To: to}, g.n))
	}
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
// removals) on a graph that was never frozen, in (label, target) order
// from the first Freeze on. The returned slice must not be modified.
//
// The lists are a cache (adjLists), built for all vertices on the first
// OutEdges or InEdges after a write or the first Freeze — from the
// insertion-ordered log before that Freeze, else from the base and the
// net delta — and dropped by the next write. Reads of a frozen graph
// nobody writes may run concurrently, first reads included; after a
// write the first read must be synchronized with other readers, like
// the first PinView.
func (g *Graph) OutEdges(v int) []Edge { return g.adj().out[v] }

// InEdges returns the edges entering v, in the order OutEdges documents
// (by (label, source) from the first Freeze on). The returned slice
// must not be modified.
func (g *Graph) InEdges(v int) []Edge { return g.adj().in[v] }

// adjLists is the cached per-vertex lists of a graph.
type adjLists struct{ out, in [][]Edge }

// adj returns the lists, building them when no read since the last
// write did. Concurrent first readers each build a copy and all return
// the one published first.
func (g *Graph) adj() *adjLists {
	if l := g.lists.Load(); l != nil {
		return l
	}
	var l adjLists
	if g.csrBase == nil {
		l.out = rowsOfLog(g.log, g.n, g.edges, true)
		l.in = rowsOfLog(g.log, g.n, g.edges, false)
	} else {
		l.out, l.in = listsOf(g.current(), g.edges)
	}
	g.lists.CompareAndSwap(nil, &l)
	return g.lists.Load()
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
// list rebuild and the whole-graph passes read once the log is dropped.
type adjacency interface {
	NumVertices() int
	NumLabels() int
	Label(lid int) byte
	OutWithID(v, lid int) []int32
	InWithID(v, lid int) []int32
}

// current returns the graph's edge set in CSR form without reading the
// lists, for a graph frozen at least once: the frozen snapshot, else the
// view pinned at this epoch, else — built for the caller and not kept —
// the base merged with the net delta, or a full build when the delta may
// carry a label the base lacks.
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
// pass: the cached lists when a read built them, else, before the first
// Freeze, the log's rows (carved for the pass and not kept), else current
// — on a graph not written since its Freeze the snapshot itself — so no
// pass builds the cache.
type rows struct {
	lists [][]Edge
	a     adjacency
}

func (g *Graph) rows() rows {
	switch l := g.lists.Load(); {
	case l != nil:
		return rows{lists: l.out}
	case g.csrBase == nil:
		return rows{lists: rowsOfLog(g.log, g.n, g.edges, true)}
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

// HasEdge reports whether the exact edge exists: one probe of the log's
// index, and on a frozen graph a binary search in the base CSR when the
// delta does not hold the edge. An endpoint outside [0, NumVertices())
// reads as absent.
func (g *Graph) HasEdge(from int, label byte, to int) bool {
	if !g.inRange(from, to) {
		return false
	}
	if len(g.index) > 0 {
		if i, _, found := g.probe(uint32(from), uint32(to), label); found {
			return g.log[uint32(g.index[i])-1].added
		}
	}
	return g.csrBase != nil && g.csrBase.HasEdge(from, label, to)
}

// Alphabet returns the set of labels used by the graph's edges, sorted,
// in a slice of the caller's: one O(256) pass over the per-label edge
// counts that AddEdge / RemoveEdge maintain, nothing cached. It writes
// nothing, so concurrent readers of a graph nobody writes may call it.
func (g *Graph) Alphabet() automaton.Alphabet {
	var labels automaton.Alphabet
	for b, c := range g.labelCount {
		if c > 0 {
			labels = append(labels, byte(b))
		}
	}
	return labels
}

// Edges returns all edges in (from, to, label) order, in a slice of
// the caller's. Like the whole-graph passes it reads the out-rows (rows)
// and builds no cache.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	r := g.rows()
	for v := range g.n {
		n := len(out)
		out = slices.AppendSeq(out, r.out(v))
		slices.SortFunc(out[n:], func(x, y Edge) int {
			return cmp.Or(cmp.Compare(x.To, y.To), cmp.Compare(x.Label, y.Label))
		})
	}
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
