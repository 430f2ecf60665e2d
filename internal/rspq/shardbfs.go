package rspq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file implements the bulk-synchronous frontier exchange: the
// sharded form of every backward product BFS in the engine — the
// baseline tier's co-reachability sweep (coReach), the walk-reduction
// tiers' distance/successor BFS (distToGoal), and the summary tier's
// position-NFA co-reachability sweep (seqSearcher.computeCoReach).
//
// The pinned view's row space is cut into K contiguous ranges (rowParts,
// K from graph.SetShards). The exchange partitions SEARCH STATE, not
// storage: every shard reads the one CSR through the same View
// accessors the sequential kernels use, and shard s owns exactly the
// product ids (vertex, state) of its vertex range, so visited stamps,
// distances and successor links are written only by s — no
// synchronization on the arrays themselves. Each round
// runs two parallel phases separated by barriers. A TOP-DOWN round:
//
//	expand   every worker pops its shard's frontier and walks the
//	         shard's reverse adjacency; predecessors that land in the
//	         same shard are settled immediately, predecessors owned by
//	         shard t are appended to the outbox addressed s→t;
//	deliver  every worker drains the outboxes addressed to it, settling
//	         the ids not yet known, and swaps in its next frontier.
//
// A BOTTOM-UP round (chosen by the direction heuristic of dirbfs.go
// when the frontier floods) inverts the expand phase: every worker
// scans its shard's still-unvisited ids and walks their FORWARD
// adjacency, settling an id as soon as one successor is found in the
// previous level. Bottom-up discoveries are always own-row, so the
// round sends no messages at all; its deliver phase only installs the
// next frontier. Because a parallel expand may not read visited state
// another shard is writing, bottom-up probes test membership in ex.fb —
// the visited set as of the last barrier, appended to only inside
// deliver phases — which holds exactly the ids at distance < d, making
// the probe both race-free and level-exact (see dirbfs.go for the
// distance argument).
//
// Rounds repeat until every frontier is empty. The result is exactly
// the synchronous BFS level structure, so distances (and therefore
// answers, existence bits and shortest-walk lengths) are identical to
// the sequential kernels; only the choice among equal-length parent
// links can differ, which every caller treats as "any shortest witness".
//
// Workers are capped at min(K, GOMAXPROCS); with one worker the phases
// run inline — no goroutines, no barriers — so a K-sharded search on
// one core degenerates to propagation-blocked sequential BFS (the
// outboxes then serve purely as a locality device: random writes into
// another shard's state become sequential appends replayed within that
// shard's cache-sized working set). This partition/outbox protocol is
// also the on-ramp to the ROADMAP's multi-machine exchange: a remote
// shard changes where an outbox is flushed, not the algorithm.

// rowParts is the row-range partition of one pinned view: shard s of K
// owns the vertices [s·rows, (s+1)·rows) ∩ [0, n) with rows = ⌈n/K⌉.
// The ranges come from the view's own vertex count, so an overlay view
// whose vertex set grew past its base partitions like any other. K <= 1
// means the sequential kernels run.
type rowParts struct{ K, rows, n int }

func partition(vw *graph.View) rowParts {
	n, K := vw.NumVertices(), vw.Shards()
	return rowParts{K: K, rows: max(1, (n+K-1)/max(K, 1)), n: n}
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

// exMsg is one cross-shard discovery of the distToGoal exchange: the
// product id to settle, the successor it was reached from, and the
// graph label of that step.
type exMsg struct {
	id, parent int32
	label      byte
}

// exWord is one cross-shard discovery batch of the bit-parallel
// exchange: every newly reachable automaton state of one vertex packed
// into a single word. This is the existence-only message format — no
// parent, no label — so up to 64 discoveries ride in 12 bytes where
// the full format spends 9 bytes each.
type exWord struct {
	v    int32
	bits uint64
}

// exch is the pooled scratch of one frontier exchange: per-shard
// frontier and next-frontier lists, the K×K outbox matrix in the three
// message shapes (id-only for the mark-only sweeps, full messages when
// parent links are recorded, packed words for the bit-parallel kernel),
// the at-barrier visited stamp read by bottom-up rounds, and the
// per-shard accumulators feeding the direction heuristic. Outbox s→t
// lives at index s*K+t.
type exch struct {
	fr, nx [][]int32
	box    [][]int32
	mbox   [][]exMsg
	wbox   [][]exWord

	// fb stamps every id (or vertex, in the bit kernel) visited as of
	// the last barrier. It is appended to only inside deliver phases —
	// owner-partitioned, each shard stamping its own rows — so expand
	// phases may read it for any row without racing the owners' visited
	// arrays.
	fb stamped

	// fe/ue accumulate, per shard, the in-degree of newly discovered
	// frontier ids and the out-degree they remove from the unvisited
	// side; the driver sums them between rounds to steer the direction
	// heuristic.
	fe, ue []int64

	// lgV/lgW/lgOff are the per-shard witness logs of the bit-parallel
	// distance exchange (distbits.go): shard s appends its installed
	// (vertex, word) pairs in each deliver phase and seals the level in
	// lgOff — the sharded twin of arena.wlog, same level convention.
	// Sized lazily by resetLogs; the mark-only kernels never touch them.
	lgV   [][]int32
	lgW   [][]uint64
	lgOff [][]int32
}

var exchPool = sync.Pool{New: func() any { return new(exch) }}

func getExch(K int) *exch {
	e := exchPool.Get().(*exch)
	if cap(e.fr) < K {
		e.fr = make([][]int32, K)
		e.nx = make([][]int32, K)
		e.fe = make([]int64, K)
		e.ue = make([]int64, K)
	}
	e.fr = e.fr[:K]
	e.nx = e.nx[:K]
	e.fe = e.fe[:K]
	e.ue = e.ue[:K]
	if cap(e.box) < K*K {
		e.box = make([][]int32, K*K)
		e.mbox = make([][]exMsg, K*K)
		e.wbox = make([][]exWord, K*K)
	}
	e.box = e.box[:K*K]
	e.mbox = e.mbox[:K*K]
	e.wbox = e.wbox[:K*K]
	for i := range e.fr {
		e.fr[i] = e.fr[i][:0]
		e.nx[i] = e.nx[i][:0]
		e.fe[i] = 0
		e.ue[i] = 0
	}
	for i := range e.box {
		e.box[i] = e.box[i][:0]
		e.mbox[i] = e.mbox[i][:0]
		e.wbox[i] = e.wbox[i][:0]
	}
	return e
}

func (e *exch) release() { exchPool.Put(e) }

// resetLogs prepares the per-shard witness logs for one distance
// exchange over the current shard count (set by getExch); buffers are
// pooled with the exch, so warm searches append without allocating.
func (e *exch) resetLogs() {
	K := len(e.fr)
	if cap(e.lgV) < K {
		e.lgV = make([][]int32, K)
		e.lgW = make([][]uint64, K)
		e.lgOff = make([][]int32, K)
	}
	e.lgV = e.lgV[:K]
	e.lgW = e.lgW[:K]
	e.lgOff = e.lgOff[:K]
	for s := 0; s < K; s++ {
		e.lgV[s] = e.lgV[s][:0]
		e.lgW[s] = e.lgW[s][:0]
		e.lgOff[s] = e.lgOff[s][:0]
	}
}

// clearAccum resets the per-shard heuristic accumulators for one round.
func (e *exch) clearAccum() {
	for s := range e.fe {
		e.fe[s], e.ue[s] = 0, 0
	}
}

// sumAccum drains the round's accumulators: the frontier in-degree sum
// and the out-degree newly removed from the unvisited side.
func (e *exch) sumAccum() (fe, ue int64) {
	for s := range e.fe {
		fe += e.fe[s]
		ue += e.ue[s]
	}
	return fe, ue
}

// finish installs shard s's next frontier and stamps it into the
// at-barrier visited set read by the next bottom-up round. Runs inside
// a deliver phase: the fb writes are owner-partitioned (s stamps only
// its own rows) and become visible to every shard at the barrier.
func (e *exch) finish(s int) {
	e.fr[s], e.nx[s] = e.nx[s], e.fr[s][:0]
	for _, id := range e.fr[s] {
		e.fb.add(int(id))
	}
}

// exchangeWorkersOverride pins the exchange worker count for tests (so
// the parallel phases are exercised under the race detector even on a
// single-CPU machine). 0 means min(K, GOMAXPROCS).
var exchangeWorkersOverride atomic.Int32

func exchangeWorkers(K int) int {
	w := int(exchangeWorkersOverride.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > K {
		w = K
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parShards applies f to every shard index, fanning out over W workers;
// with one worker it runs inline. Each call is one BSP phase: it
// returns only when every shard is done, so the caller's loop provides
// the barrier.
func parShards(W, K int, f func(s int)) {
	if W <= 1 {
		for s := 0; s < K; s++ {
			f(s)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < K; s += W {
				f(s)
			}
		}(w)
	}
	wg.Wait()
}

// addBitHit records one bit-parallel kernel dispatch in both telemetry
// sinks (trace.go).
func (p *product) addBitHit() {
	if p.counts != nil {
		p.counts.bitHits.Inc()
	}
	if p.tr != nil {
		p.tr.bitParallel = true
	}
}

// deliverMarks is the deliver phase of a top-down round of the
// mark-only sweeps (coReach and the summary position-NFA sweep): drain
// the id-only outboxes addressed to shard s into its membership set,
// collect the newly settled ids as s's next frontier, account their
// degrees (div maps an id to its vertex), and swap the frontier in.
func deliverMarks(ex *exch, K, s, div int, vw *graph.View, marks *stamped) {
	for t := 0; t < K; t++ {
		for _, pid := range ex.box[t*K+s] {
			if !marks.has(int(pid)) {
				marks.add(int(pid))
				ex.nx[s] = append(ex.nx[s], pid)
				v := int(pid) / div
				ex.fe[s] += int64(vw.InDegree(v))
				ex.ue[s] += int64(vw.OutDegree(v))
			}
		}
		ex.box[t*K+s] = ex.box[t*K+s][:0]
	}
	ex.finish(s)
}

// frontierTotal sums the per-shard frontier sizes after a deliver
// phase — the exchange terminates when it reaches zero.
func frontierTotal(ex *exch, K int) int {
	total := 0
	for s := 0; s < K; s++ {
		total += len(ex.fr[s])
	}
	return total
}

// distToGoalSharded is the frontier-exchange form of distToGoal: same
// arena outputs (a.dst validity stamps, a.dist, a.parent, a.plabel), so
// every consumer — sharedWalkFrom, existence lookups, exportGoalTable,
// BaselineShortest's lower bounds — reads it exactly like the
// sequential kernel's. Rounds pick their direction per the dirbfs.go
// heuristic; bottom-up rounds record the successor link that settled
// each id, so the walk reconstruction is direction-blind.
func (p *product) distToGoalSharded(y int, a *arena) {
	K := p.parts.K
	nm := p.n * p.m
	a.dst.reset(nm)
	a.resetReach(nm)
	a.growProduct(nm)
	ex := getExch(K)
	ex.fb.reset(nm)
	home := p.parts.owner(y)
	frontEdges, unvisEdges := int64(0), int64(p.m)*int64(p.vw.NumEdges())
	for q := 0; q < p.m; q++ {
		if p.d.Accept[q] {
			id := p.id(y, q)
			a.dst.add(id)
			a.dist[id] = 0
			ex.fr[home] = append(ex.fr[home], int32(id))
			ex.fb.add(id)
			frontEdges += int64(p.vw.InDegree(y))
			unvisEdges -= int64(p.vw.OutDegree(y))
		}
	}
	W := exchangeWorkers(K)
	total := len(ex.fr[home])
	var td, bu, sw int64
	dc := p.dirConfig()
	bottomUp := false
	for d := int32(1); total > 0; d++ {
		// Between rounds the driver runs alone: every stamped id sits in
		// exactly one shard frontier, so the reach list is filled here,
		// outside the parallel phases.
		for s := 0; s < K; s++ {
			a.noteReached(ex.fr[s])
		}
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(total), int64(nm))
		if bottomUp != prev {
			sw++
		}
		t0 := p.roundStart()
		ex.clearAccum()
		if bottomUp {
			bu++
			parShards(W, K, func(s int) { p.buExpandGoal(ex, s, a, d) })
			parShards(W, K, func(s int) { ex.finish(s) })
		} else {
			td++
			parShards(W, K, func(s int) { p.tdExpandGoal(ex, K, s, a) })
			parShards(W, K, func(s int) { p.deliverGoal(ex, K, s, a) })
		}
		fe, ue := ex.sumAccum()
		frontEdges = fe
		unvisEdges -= ue
		p.roundEnd(&dc, t0, bottomUp, total)
		total = frontierTotal(ex, K)
	}
	p.runDone(&dc, td, bu, sw)
	ex.release()
}

// tdExpandGoal is the top-down expand phase of one distToGoal round for
// shard s: walk the frontier's reverse adjacency, settle own rows,
// address the rest.
func (p *product) tdExpandGoal(ex *exch, K, s int, a *arena) {
	lo, hi := p.parts.bounds(s)
	L := p.vw.NumLabels()
	for _, id := range ex.fr[s] {
		v, q := int(id)/p.m, int(id)%p.m
		d := a.dist[id] + 1
		for lid := 0; lid < L; lid++ {
			di := p.lmap[lid]
			if di < 0 {
				continue
			}
			preds := p.rev.Pred(q, int(di))
			if len(preds) == 0 {
				continue
			}
			label := p.vw.Label(lid)
			for _, u32 := range p.vw.InWithID(v, lid) {
				u := int(u32)
				base := u * p.m
				if u >= lo && u < hi { // own rows: settle immediately
					for _, qp := range preds {
						pid := base + int(qp)
						if !a.dst.has(pid) {
							a.dst.add(pid)
							a.dist[pid] = d
							a.parent[pid] = id
							a.plabel[pid] = label
							ex.nx[s] = append(ex.nx[s], int32(pid))
							ex.fe[s] += int64(p.vw.InDegree(u))
							ex.ue[s] += int64(p.vw.OutDegree(u))
						}
					}
					continue
				}
				t := p.parts.owner(u)
				for _, qp := range preds {
					ex.mbox[s*K+t] = append(ex.mbox[s*K+t], exMsg{id: int32(base + int(qp)), parent: id, label: label})
				}
			}
		}
	}
}

// deliverGoal is the deliver phase of one top-down distToGoal round for
// shard s: drain the full-message outboxes and install the next
// frontier.
func (p *product) deliverGoal(ex *exch, K, s int, a *arena) {
	for t := 0; t < K; t++ {
		for _, mg := range ex.mbox[t*K+s] {
			id := int(mg.id)
			if !a.dst.has(id) {
				a.dst.add(id)
				a.dist[id] = a.dist[mg.parent] + 1
				a.parent[id] = mg.parent
				a.plabel[id] = mg.label
				ex.nx[s] = append(ex.nx[s], mg.id)
				v := id / p.m
				ex.fe[s] += int64(p.vw.InDegree(v))
				ex.ue[s] += int64(p.vw.OutDegree(v))
			}
		}
		ex.mbox[t*K+s] = ex.mbox[t*K+s][:0]
	}
	ex.finish(s)
}

// buExpandGoal is the bottom-up expand phase of one distToGoal round
// for shard s: scan the shard's unvisited ids and settle each whose
// forward adjacency reaches the previous level. All discoveries are
// own-row, so the phase sends nothing; the previous level is read from
// the at-barrier stamp ex.fb, whose members provably sit at distance
// exactly d-1 (dirbfs.go), making dist = d exact without reading any
// other shard's distance array mid-phase.
func (p *product) buExpandGoal(ex *exch, s int, a *arena, d int32) {
	lo, hi := p.parts.bounds(s)
	L := p.vw.NumLabels()
	for v := lo; v < hi; v++ {
		base := v * p.m
		for q := 0; q < p.m; q++ {
			id := base + q
			if a.dst.has(id) {
				continue
			}
			if p.buProbeGoalExch(ex, a, v, q, L, d, id) {
				ex.nx[s] = append(ex.nx[s], int32(id))
				ex.fe[s] += int64(p.vw.InDegree(v))
				ex.ue[s] += int64(p.vw.OutDegree(v))
			}
		}
	}
}

// buProbeGoalExch settles unvisited (v, q) = id at distance d when some
// product successor is stamped in the at-barrier set, recording that
// successor link.
func (p *product) buProbeGoalExch(ex *exch, a *arena, v, q, L int, d int32, id int) bool {
	for lid := 0; lid < L; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		t := p.d.StepIndex(q, int(di))
		for _, u := range p.vw.OutWithID(v, lid) {
			sid := int(u)*p.m + t
			if ex.fb.has(sid) {
				a.dst.add(id)
				a.dist[id] = d
				a.parent[id] = int32(sid)
				a.plabel[id] = p.vw.Label(lid)
				return true
			}
		}
	}
	return false
}

// coReachSharded is the frontier-exchange form of coReach, leaving the
// co-reachability set in a.co exactly like the sequential kernel.
// Unlike the sequential mark-only sweep, its bottom-up rounds stay
// strictly synchronous (probing ex.fb, not a.co): observing another
// shard's in-flight marks would be a data race, not just a faster
// convergence.
func (p *product) coReachSharded(y int, a *arena) {
	K := p.parts.K
	nm := p.n * p.m
	a.co.reset(nm)
	ex := getExch(K)
	ex.fb.reset(nm)
	home := p.parts.owner(y)
	frontEdges, unvisEdges := int64(0), int64(p.m)*int64(p.vw.NumEdges())
	for q := 0; q < p.m; q++ {
		if p.d.Accept[q] {
			id := p.id(y, q)
			a.co.add(id)
			ex.fr[home] = append(ex.fr[home], int32(id))
			ex.fb.add(id)
			frontEdges += int64(p.vw.InDegree(y))
			unvisEdges -= int64(p.vw.OutDegree(y))
		}
	}
	W := exchangeWorkers(K)
	total := len(ex.fr[home])
	var td, bu, sw int64
	dc := p.dirConfig()
	bottomUp := false
	for total > 0 {
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(total), int64(nm))
		if bottomUp != prev {
			sw++
		}
		t0 := p.roundStart()
		ex.clearAccum()
		if bottomUp {
			bu++
			parShards(W, K, func(s int) { p.buExpandCo(ex, s, a) })
			parShards(W, K, func(s int) { ex.finish(s) })
		} else {
			td++
			parShards(W, K, func(s int) { p.tdExpandCo(ex, K, s, a) })
			parShards(W, K, func(s int) { deliverMarks(ex, K, s, p.m, p.vw, &a.co) })
		}
		fe, ue := ex.sumAccum()
		frontEdges = fe
		unvisEdges -= ue
		p.roundEnd(&dc, t0, bottomUp, total)
		total = frontierTotal(ex, K)
	}
	p.runDone(&dc, td, bu, sw)
	ex.release()
}

// tdExpandCo is the top-down expand phase of one coReach round for
// shard s.
func (p *product) tdExpandCo(ex *exch, K, s int, a *arena) {
	lo, hi := p.parts.bounds(s)
	L := p.vw.NumLabels()
	for _, id := range ex.fr[s] {
		v, q := int(id)/p.m, int(id)%p.m
		for lid := 0; lid < L; lid++ {
			di := p.lmap[lid]
			if di < 0 {
				continue
			}
			preds := p.rev.Pred(q, int(di))
			if len(preds) == 0 {
				continue
			}
			for _, u32 := range p.vw.InWithID(v, lid) {
				u := int(u32)
				base := u * p.m
				if u >= lo && u < hi {
					for _, qp := range preds {
						pid := base + int(qp)
						if !a.co.has(pid) {
							a.co.add(pid)
							ex.nx[s] = append(ex.nx[s], int32(pid))
							ex.fe[s] += int64(p.vw.InDegree(u))
							ex.ue[s] += int64(p.vw.OutDegree(u))
						}
					}
					continue
				}
				t := p.parts.owner(u)
				for _, qp := range preds {
					ex.box[s*K+t] = append(ex.box[s*K+t], int32(base+int(qp)))
				}
			}
		}
	}
}

// buExpandCo is the bottom-up expand phase of one coReach round for
// shard s: mark every unvisited own-row id whose forward adjacency
// reaches the at-barrier frontier stamp.
func (p *product) buExpandCo(ex *exch, s int, a *arena) {
	lo, hi := p.parts.bounds(s)
	L := p.vw.NumLabels()
	for v := lo; v < hi; v++ {
		base := v * p.m
		for q := 0; q < p.m; q++ {
			id := base + q
			if a.co.has(id) {
				continue
			}
			if p.buProbeCoExch(ex, v, q, L) {
				a.co.add(id)
				ex.nx[s] = append(ex.nx[s], int32(id))
				ex.fe[s] += int64(p.vw.InDegree(v))
				ex.ue[s] += int64(p.vw.OutDegree(v))
			}
		}
	}
}

// buProbeCoExch reports whether (v, q) has a product successor stamped
// in the at-barrier visited set.
func (p *product) buProbeCoExch(ex *exch, v, q, L int) bool {
	for lid := 0; lid < L; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		t := p.d.StepIndex(q, int(di))
		for _, u := range p.vw.OutWithID(v, lid) {
			if ex.fb.has(int(u)*p.m + t) {
				return true
			}
		}
	}
	return false
}

// computeCoReachSharded is the frontier-exchange form of the summary
// tier's position-NFA co-reachability sweep, marking the same
// ss.coreach set over (vertex·posCount + position) ids. The transition
// relation is the plan's NFA arcs (reverse arcs top-down, forward arcs
// bottom-up) instead of the DFA transition tables; the partition,
// protocol and direction heuristic are identical.
func (ss *seqSearcher) computeCoReachSharded() {
	K := ss.parts.K
	pc := ss.plan.posCount
	ss.coreach.reset(ss.n * pc)
	ex := getExch(K)
	ex.fb.reset(ss.n * pc)
	home := ss.parts.owner(ss.y)
	frontEdges, unvisEdges := int64(0), int64(pc)*int64(ss.vw.NumEdges())
	for _, s := range ss.plan.accepts {
		id := ss.y*pc + int(s)
		if !ss.coreach.has(id) {
			ss.coreach.add(id)
			ex.fr[home] = append(ex.fr[home], int32(id))
			ex.fb.add(id)
			frontEdges += int64(ss.vw.InDegree(ss.y))
			unvisEdges -= int64(ss.vw.OutDegree(ss.y))
		}
	}
	W := exchangeWorkers(K)
	total := len(ex.fr[home])
	var td, bu, sw int64
	dc := resolveDirConfig(ss.vw.NumEdges(), ss.n)
	if ss.tr != nil {
		ss.tr.alpha, ss.tr.beta, ss.tr.tuned = dc.alpha, dc.beta, dc.tuned
	}
	bottomUp := false
	for total > 0 {
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(total), int64(ss.n*pc))
		if bottomUp != prev {
			sw++
		}
		t0 := roundStartTimed(ss.counts, ss.tr)
		ex.clearAccum()
		if bottomUp {
			bu++
			parShards(W, K, func(s int) { ss.buExpandSeq(ex, s) })
			parShards(W, K, func(s int) { ex.finish(s) })
		} else {
			td++
			parShards(W, K, func(s int) { ss.tdExpandSeq(ex, K, s) })
			parShards(W, K, func(s int) { deliverMarks(ex, K, s, pc, ss.vw, &ss.coreach) })
		}
		fe, ue := ex.sumAccum()
		frontEdges = fe
		unvisEdges -= ue
		roundEndTimed(ss.counts, ss.tr, t0, bottomUp, total)
		total = frontierTotal(ex, K)
	}
	runDoneTimed(ss.counts, ss.tr, td, bu, sw)
	ex.release()
}

// tdExpandSeq is the top-down expand phase of one summary-sweep round
// for shard s, walking the plan's reverse NFA arcs.
func (ss *seqSearcher) tdExpandSeq(ex *exch, K, s int) {
	lo, hi := ss.parts.bounds(s)
	pc := ss.plan.posCount
	for _, id := range ex.fr[s] {
		v, pos := int(id)/pc, int(id)%pc
		for _, arc := range ss.plan.rnfa[pos] {
			lid := ss.vw.LabelID(arc.label)
			if lid < 0 {
				continue
			}
			for _, u32 := range ss.vw.InWithID(v, lid) {
				u := int(u32)
				pid := u*pc + int(arc.from)
				if u >= lo && u < hi {
					if !ss.coreach.has(pid) {
						ss.coreach.add(pid)
						ex.nx[s] = append(ex.nx[s], int32(pid))
						ex.fe[s] += int64(ss.vw.InDegree(u))
						ex.ue[s] += int64(ss.vw.OutDegree(u))
					}
				} else {
					t := ss.parts.owner(u)
					ex.box[s*K+t] = append(ex.box[s*K+t], int32(pid))
				}
			}
		}
	}
}

// buExpandSeq is the bottom-up expand phase of one summary-sweep round
// for shard s, walking the plan's forward NFA arcs against the shard's
// forward adjacency.
func (ss *seqSearcher) buExpandSeq(ex *exch, s int) {
	lo, hi := ss.parts.bounds(s)
	pc := ss.plan.posCount
	for v := lo; v < hi; v++ {
		base := v * pc
		for pos := 0; pos < pc; pos++ {
			id := base + pos
			if ss.coreach.has(id) {
				continue
			}
			if ss.buProbeSeq(ex, v, pos, pc) {
				ss.coreach.add(id)
				ex.nx[s] = append(ex.nx[s], int32(id))
				ex.fe[s] += int64(ss.vw.InDegree(v))
				ex.ue[s] += int64(ss.vw.OutDegree(v))
			}
		}
	}
}

// buProbeSeq reports whether (v, pos) has a position-NFA successor
// stamped in the at-barrier visited set.
func (ss *seqSearcher) buProbeSeq(ex *exch, v, pos, pc int) bool {
	for _, arc := range ss.plan.fnfa[pos] {
		lid := ss.vw.LabelID(arc.label)
		if lid < 0 {
			continue
		}
		for _, u := range ss.vw.OutWithID(v, lid) {
			if ex.fb.has(int(u)*pc + int(arc.to)) {
				return true
			}
		}
	}
	return false
}
