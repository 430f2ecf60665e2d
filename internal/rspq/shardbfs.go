package rspq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file implements the bulk-synchronous frontier exchange every
// backward sweep in the engine runs as, and the first of its two round
// drivers: the id-list sweep, which marks product ids one by one over a
// transition relation given as arc tables. The baseline tier's
// co-reachability sweep and the walk-reduction tiers' distance/successor
// BFS call it with the arcs of the minimal DFA when the DFA is too wide
// to pack into a word; the summary tier's position-NFA sweep calls the
// same function with the arcs of its Ψtr plan. The second driver, over
// packed per-vertex words, is bitbfs.go.
//
// The pinned view's row space is cut into K contiguous ranges (rowParts,
// K from graph.SetShards, at least 1). The exchange partitions SEARCH
// STATE, not storage: every shard reads the one CSR through the same
// View accessors, and shard s owns exactly the product ids (vertex,
// state) of its vertex range, so visited stamps, distances and successor
// links are written only by s — no synchronization on the arrays
// themselves. Each round runs two phases separated by barriers:
//
//	expand   every shard pops its frontier and walks the reverse
//	         adjacency; predecessors that land in the same shard are
//	         settled immediately, predecessors owned by shard t are
//	         appended to the outbox addressed s→t, carrying the edge
//	         that discovered them;
//	deliver  every shard drains the outboxes addressed to it, settling
//	         the ids not yet known, and swaps in its next frontier.
//
// Rounds repeat until every frontier is empty: the synchronous BFS level
// structure, whatever K is. (A product sweep answering a target group
// also stops once the probe the driver runs between rounds finds every
// source answered — goalProbe, rspq.go.) Distances, closures and
// therefore answers are identical for every K; only the choice among
// equal-length successor links can differ, which every caller treats as
// "any shortest witness". Links are claimed where the discovering edge
// is in hand — in the expand phase for own rows, from the message in
// the deliver phase for the rest.
//
// Phases fan out over min(K, GOMAXPROCS) workers. With one worker —
// always the case at K = 1, the unsharded default — they are direct
// calls on the caller's goroutine: no goroutines, no barriers, no
// closures, and the single shard owns every row, so no message is ever
// boxed and the deliver phase only swaps the frontier. A K-sharded
// search on one core is the same loop over K shards, with the outboxes
// as a locality device (random writes into another shard's state become
// sequential appends replayed within that shard's working set).

// rowParts is the row-range partition of one pinned view: shard s of K
// owns the vertices [s·rows, (s+1)·rows) ∩ [0, n) with rows = ⌈n/K⌉.
// The ranges come from the view's own vertex count, so an overlay view
// whose vertex set grew past its base partitions like any other. An
// unsharded view (graph.SetShards 0) is the one-shard partition.
type rowParts struct{ K, rows, n int }

func partition(vw *graph.View) rowParts {
	n, K := vw.NumVertices(), max(vw.Shards(), 1)
	return rowParts{K: K, rows: max(1, (n+K-1)/K), n: n}
}

// owner returns the shard owning vertex v's rows.
func (rp rowParts) owner(v int) int { return v / rp.rows }

// bounds returns shard s's vertex range [lo, hi); empty when K > n
// leaves s no rows.
func (rp rowParts) bounds(s int) (lo, hi int) {
	return min(s*rp.rows, rp.n), min((s+1)*rp.rows, rp.n)
}

// baseEdges returns, per shard, the number of edges of frozen snapshot c
// whose source row the shard owns, read off c's bucket prefix sums in
// O(K). Rows past c (vertices an overlay added) count no base edges, so
// the counts always sum to c.NumEdges().
func (rp rowParts) baseEdges(c *graph.CSR) []int {
	off, L, n := c.Parts().OutBucket, c.NumLabels(), c.NumVertices()
	edges := make([]int, rp.K)
	for s := range edges {
		lo, hi := rp.bounds(s)
		edges[s] = int(off[min(hi, n)*L] - off[min(lo, n)*L])
	}
	return edges
}

// sinks are the optional listeners of a sweep: the kernel telemetry
// counters (Engine and BatchSolver.SetMetrics wire them) and the
// per-query trace recording. Either may be nil.
type sinks struct {
	counts *exchCounters
	tr     *kernelTrace
}

// sweepEnv is what a backward sweep runs over: the pinned view, the
// state count m of the automaton riding on it (product ids are
// vertex·m + state), the row partition and the sinks.
type sweepEnv struct {
	vw    *graph.View
	n, m  int
	parts rowParts
	sinks
}

func makeSweepEnv(vw *graph.View, m int, sk sinks) sweepEnv {
	return sweepEnv{vw: vw, n: vw.NumVertices(), m: m, parts: partition(vw), sinks: sk}
}

// arc is one transition of an arcTable: the state at its far end and
// its label.
type arc struct {
	st    int32
	label byte
}

// arcTable is a labeled transition relation over the dense states
// 0..len(rev)-1 in the orientation a backward sweep walks: rev[q] lists
// the arcs INTO q by their source state, and each round steps the
// frontier backward along them. accepts lists the accepting states. The
// minimal DFA (product.dfaArcs) and the position NFA of a Ψtr sequence
// (buildPlan) both reach the id-list sweep in this form.
type arcTable struct {
	rev     [][]arc
	accepts []int32
}

// reset empties the table for m states, keeping the rows' capacity.
func (t *arcTable) reset(m int) {
	t.rev, t.accepts = t.rev[:cap(t.rev)], t.accepts[:0]
	for len(t.rev) < m {
		t.rev = append(t.rev, nil)
	}
	t.rev = t.rev[:m]
	for q := range t.rev {
		t.rev[q] = t.rev[q][:0]
	}
}

// add records the transition from -label-> to.
func (t *arcTable) add(from int, label byte, to int) {
	t.rev[to] = append(t.rev[to], arc{int32(from), label})
}

// dfaArcs lays the product's DFA out as an arc table in the arena's
// scratch (no allocation once warm). It costs O(states × letters) a
// sweep and runs only for DFAs the packed sweep cannot take.
func (p *product) dfaArcs(a *arena) *arcTable {
	t := &a.arcs
	t.reset(p.m)
	for q := 0; q < p.m; q++ {
		if p.d.Accept[q] {
			t.accepts = append(t.accepts, int32(q))
		}
		for i, label := range p.d.Alphabet {
			t.add(q, label, p.d.StepIndex(q, i))
		}
	}
	return t
}

// exMsg is one cross-shard discovery of the id-list sweep: the product
// id to settle, the successor it was reached from, and the graph label
// of that step (the last two are read only when links are recorded).
type exMsg struct {
	id, parent int32
	label      byte
}

// exWord is one cross-shard discovery batch of the packed sweep: every
// automaton state of vertex v that steps into the frontier word of
// vertex from over one edge with label id lid, packed into a single
// word — up to 64 discoveries and their common discovering edge.
type exWord struct {
	v, from int32
	bits    uint64
	lid     int32
}

// exch is the scratch of one frontier exchange, kept in the arena:
// per-shard frontier and next-frontier lists (product ids in the
// id-list sweep, vertices in the packed one) and the K×K outbox matrix
// in the two message shapes. Outbox s→t lives at index s*K+t. Between
// sweeps every list is empty: a sweep ends on empty frontiers and each
// deliver phase drains the boxes of its round.
type exch struct {
	fr, nx [][]int32
	box    [][]exMsg
	wbox   [][]exWord
}

// reset sizes the scratch for K shards.
func (e *exch) reset(K int) {
	if cap(e.fr) < K {
		e.fr = make([][]int32, K)
		e.nx = make([][]int32, K)
		e.box = make([][]exMsg, K*K)
		e.wbox = make([][]exWord, K*K)
	}
	e.fr, e.nx = e.fr[:K], e.nx[:K]
	e.box, e.wbox = e.box[:K*K], e.wbox[:K*K]
}

// dropFrontier empties the frontier lists of a sweep that stops before
// they run dry, restoring the between-sweeps invariant.
func (e *exch) dropFrontier() {
	for s := range e.fr {
		e.fr[s] = e.fr[s][:0]
	}
}

// frontierTotal sums the per-shard frontier sizes after a deliver
// phase — the exchange terminates when it reaches zero.
func (e *exch) frontierTotal() int {
	total := 0
	for _, fr := range e.fr {
		total += len(fr)
	}
	return total
}

// exchangeWorkersOverride pins the exchange worker count for tests (so
// the parallel phases are exercised under the race detector even on a
// single-CPU machine). 0 means min(K, GOMAXPROCS).
var exchangeWorkersOverride atomic.Int32

func exchangeWorkers(K int) int {
	if K == 1 {
		return 1
	}
	w := int(exchangeWorkersOverride.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, K))
}

// The phases of a round: expand, then deliver.
const (
	phExpand = iota
	phDeliver
)

// shardPhases is a running sweep as fanOut sees it: phase ph of the
// current round, applied to shard s.
type shardPhases interface{ phase(ph, s int) }

// fanOut runs one phase on every shard and returns when all are done,
// so the driver's loop provides the barrier. With one worker the shards
// run inline, in order; the goroutines, their closures and the wait
// group exist only past that test, so the inline path allocates nothing.
func fanOut(W, K int, r shardPhases, ph int) {
	if W <= 1 {
		for s := 0; s < K; s++ {
			r.phase(ph, s)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := w; s < K; s += W {
				r.phase(ph, s)
			}
		}()
	}
	wg.Wait()
}

// arcSweep is the state of one running id-list sweep, kept in the arena
// so the phases can be handed to fanOut without allocating.
type arcSweep struct {
	sweepEnv
	ar    *arcTable
	a     *arena   // a.ex, and with links dist/parent/plabel
	marks *stamped // the visited set: a.dst with links, a.co without
	links bool
	d     int32 // the level the current round discovers
}

// sweepArcs is the id-list round driver: backward reachability over
// view × ar toward the goal (y, accepting). Mark-only it leaves the
// closure in a.co; with links it leaves validity stamps in a.dst, exact
// BFS distances in a.dist, for every reached non-goal id the successor
// one step closer to the goal and the label of that step in
// a.parent/a.plabel, and the reach list (arena.noteReached). A product
// sweep given sources probes them before every round and stops once all
// are answered (goalProbe), reporting that it stopped; pr is the zero
// probe otherwise.
func (e *sweepEnv) sweepArcs(a *arena, ar *arcTable, y int, links bool, pr goalProbe) (stopped bool) {
	K, nm := e.parts.K, e.n*e.m
	ex := &a.ex
	ex.reset(K)
	r := &a.ids
	*r = arcSweep{sweepEnv: *e, ar: ar, a: a, marks: a.beginSweep(nm, links), links: links}
	home := e.parts.owner(y)
	for _, q := range ar.accepts {
		if id := int32(y*e.m) + q; !r.marks.has(int(id)) {
			r.settle(home, id, -1, 0)
		}
	}
	r.deliver(home) // level 0: the goal states
	W := exchangeWorkers(K)
	for total := len(ex.fr[home]); total > 0; total = ex.frontierTotal() {
		if links {
			// Between rounds the driver runs alone, and every stamped id
			// sits in exactly one shard frontier exactly once.
			for _, fr := range ex.fr {
				a.noteReached(fr)
			}
		}
		if pr.answered(a, r.marks, r.d+1, links) {
			stopped = true
			e.sweepStopped(r.d + 1)
			ex.dropFrontier()
			break
		}
		r.d++
		t0 := e.roundStart()
		fanOut(W, K, r, phExpand)
		fanOut(W, K, r, phDeliver)
		e.roundEnd(t0, total)
	}
	e.runDone(r.d)
	*r = arcSweep{} // drop the view and the arcs: the arena outlives them
	return stopped
}

func (r *arcSweep) phase(ph, s int) {
	if ph == phExpand {
		r.expand(s)
	} else {
		r.deliver(s)
	}
}

// settle marks own-row id (not yet marked) as discovered this round from
// successor parent over an edge labeled label and queues it for shard
// s's next frontier.
func (r *arcSweep) settle(s int, id, parent int32, label byte) {
	r.marks.add(int(id))
	if r.links {
		r.a.dist[id], r.a.parent[id], r.a.plabel[id] = r.d, parent, label
	}
	r.a.ex.nx[s] = append(r.a.ex.nx[s], id)
}

// expand is the first phase of every round for shard s: walk the
// frontier's reverse arcs against the in-edges, settle own rows, address
// the rest to their owners.
func (r *arcSweep) expand(s int) {
	ex, m, K := &r.a.ex, int32(r.m), r.parts.K
	lo, hi := r.parts.bounds(s)
	for _, id := range ex.fr[s] {
		v, q := int(id/m), id%m
		for _, arc := range r.ar.rev[q] {
			for _, u := range r.vw.InWith(v, arc.label) {
				pid := u*m + arc.st
				if int(u) >= lo && int(u) < hi {
					if !r.marks.has(int(pid)) {
						r.settle(s, pid, id, arc.label)
					}
					continue
				}
				t := s*K + r.parts.owner(int(u))
				ex.box[t] = append(ex.box[t], exMsg{id: pid, parent: id, label: arc.label})
			}
		}
	}
}

// deliver is the second phase of every round for shard s: drain the
// outboxes addressed to s (always empty with one shard) and swap in the
// next frontier.
func (r *arcSweep) deliver(s int) {
	ex, K := &r.a.ex, r.parts.K
	for t := 0; t < K; t++ {
		for _, mg := range ex.box[t*K+s] {
			if !r.marks.has(int(mg.id)) {
				r.settle(s, mg.id, mg.parent, mg.label)
			}
		}
		ex.box[t*K+s] = ex.box[t*K+s][:0]
	}
	ex.fr[s], ex.nx[s] = ex.nx[s], ex.fr[s][:0]
}
