// Package graph implements the paper's graph-database models — db-graphs
// (edge-labeled directed graphs), vl-graphs (vertex-labeled) and
// evl-graphs (vertex-and-edge-labeled) — together with paths, seeded
// workload generators and plain-text / DOT serialization.
package graph

import (
	"fmt"
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
// recompute per call — the alphabet, acyclicity and the CSR snapshot
// (see Freeze) — is cached on first use and invalidated by mutation, so
// a warm graph answers these in O(1).
//
// Mutating an already-frozen graph does not discard the frozen CSR:
// mutations accumulate in a net delta (added edges, removed-edge
// tombstones) against the last snapshot, which with it answers whether
// an edge is present, and the next Freeze merges the delta into it
// instead of rebuilding from scratch — see delta.go. Each
// mutation still advances the Epoch, so epoch-keyed caches built on top
// (rspq.Engine) invalidate exactly as before.
type Graph struct {
	out   [][]Edge
	in    [][]Edge
	edges int
	names []string // optional display names, "" when unset

	// Lazily built caches, dropped on mutation.
	alpha      automaton.Alphabet
	alphaValid bool
	csr        *CSR
	acyclic    int8 // 0 unknown, 1 acyclic, 2 cyclic

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
// mutation epoch. The acyclicity verdict is NOT dropped here — each
// mutator keeps it when the mutation provably cannot flip it (see
// AddEdge / RemoveEdge / AddVertex), so acyclicity is revalidated
// incrementally only when a delta could actually create or break a
// cycle. The last frozen CSR survives as the merge base for the next
// incremental Freeze, and the last pinned view — stale from here on, by
// its epoch — as what the next pin extends.
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
		names: make([]string, n),
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.out) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex appends an isolated vertex and returns its id. An isolated
// vertex can neither create nor break a cycle, so the cached acyclicity
// verdict survives; the CSR delta overlay records only the row-count
// growth.
func (g *Graph) AddVertex() int {
	g.invalidate()
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.names = append(g.names, "")
	return len(g.out) - 1
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
// Before the first Freeze presence is a scan of from's out-edges. On a
// frozen graph it is a binary search in the base CSR plus one lookup in
// the net delta (delta.go), where the insertion is recorded, so the next
// Freeze merges it into the existing CSR instead of rebuilding. The
// cached acyclicity verdict is kept when it cannot change: an edge added
// to a cyclic graph leaves it cyclic, and a self-loop makes any graph
// cyclic; only an acyclic graph gaining a non-loop edge needs
// revalidation (deferred to the next IsAcyclic).
func (g *Graph) AddEdge(from int, label byte, to int) {
	if g.csrBase == nil {
		if !g.HasEdge(from, label, to) {
			g.link(from, label, to)
		}
		return
	}
	if k, listed, present := g.lookup(from, label, to); !present {
		g.link(from, label, to)
		g.toggleDelta(k, listed, true)
	}
}

// RemoveEdge deletes the labeled edge (from, label, to) and reports
// whether it was present; removing a missing edge (including one with
// out-of-range endpoints) is a no-op returning false, and does not
// advance the epoch.
//
// Presence is decided as in AddEdge; only a present edge scans the
// adjacency lists, to delete it. On a frozen graph the removal is
// recorded in the net delta — a tombstone for a base edge, the end of a
// pending add otherwise. The cached acyclicity verdict is kept when it
// cannot change: removing an edge from an acyclic graph leaves it
// acyclic; only a cyclic graph losing an edge needs revalidation
// (deferred to the next IsAcyclic).
func (g *Graph) RemoveEdge(from int, label byte, to int) bool {
	if from < 0 || from >= len(g.out) || to < 0 || to >= len(g.out) {
		return false
	}
	if g.csrBase == nil {
		return g.unlink(from, label, to)
	}
	k, listed, present := g.lookup(from, label, to)
	if present {
		g.unlink(from, label, to)
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
	if present {
		g.unlink(from, label, to)
	} else {
		g.link(from, label, to)
	}
	g.toggleDelta(k, listed, !present)
}

// link appends an absent edge to both adjacency lists.
func (g *Graph) link(from int, label byte, to int) {
	g.invalidate()
	e := Edge{From: from, Label: label, To: to}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.edges++
	g.labelCount[label]++
	switch {
	case from == to:
		g.acyclic = 2
	case g.acyclic == 1:
		g.acyclic = 0
	}
}

// unlink deletes the edge from both adjacency lists, shifting the rest
// so their order is kept, and reports whether it was there.
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
	g.invalidate()
	g.out[from] = append(g.out[from][:oi], g.out[from][oi+1:]...)
	for i, e := range g.in[to] {
		if e.Label == label && e.From == from {
			g.in[to] = append(g.in[to][:i], g.in[to][i+1:]...)
			break
		}
	}
	g.edges--
	g.labelCount[label]--
	if g.acyclic == 2 {
		g.acyclic = 0
	}
	return true
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

// OutEdges returns the edges leaving v. The returned slice must not be
// modified.
func (g *Graph) OutEdges(v int) []Edge { return g.out[v] }

// InEdges returns the edges entering v. The returned slice must not be
// modified.
func (g *Graph) InEdges(v int) []Edge { return g.in[v] }

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

// Edges returns all edges in deterministic order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for v := range g.out {
		out = append(out, g.out[v]...)
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

// IsAcyclic reports whether the graph is a DAG (ignoring labels). The
// verdict is cached, and a mutation drops it only when it could
// actually flip: adding a non-loop edge to an acyclic graph, or
// removing an edge from a cyclic one. All other mutations (isolated
// vertices, edges added to an already-cyclic graph, edges removed from
// an acyclic one, self-loops — which decide the verdict outright) keep
// or refine the cached answer, so streaming workloads rarely pay the
// O(V+E) recheck.
func (g *Graph) IsAcyclic() bool {
	if g.acyclic != 0 {
		return g.acyclic == 1
	}
	acyclic := g.isAcyclicUncached()
	if acyclic {
		g.acyclic = 1
	} else {
		g.acyclic = 2
	}
	return acyclic
}

func (g *Graph) isAcyclicUncached() bool {
	n := g.NumVertices()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, e := range g.out[v] {
			indeg[e.To]++
		}
	}
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, e := range g.out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return seen == n
}

// TopoOrder returns a topological order of a DAG, or nil if the graph has
// a cycle.
func (g *Graph) TopoOrder() []int {
	n := g.NumVertices()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, e := range g.out[v] {
			indeg[e.To]++
		}
	}
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
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
