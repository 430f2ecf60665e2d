package rspq

import (
	"math/bits"
	"slices"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// This file implements the backward sweep, the one round driver every
// tractable tier answers from: backward reachability over view × A
// toward the goal (y, accepting). The distance BFS every tier but the
// finite one reads its shortest walks off, and the mark-only
// co-reachability sweep of the walk tiers' existence asks, run it with
// A = the minimal DFA (product.sweep); the summary tier's search runs it
// with A = the position NFA of a Ψtr plan (acquireSeqSearcher). Either way A
// comes packed (automaton.Packed): its m states split into W = ⌈m/64⌉
// lanes of 64, and a vertex's set of visited / frontier states is W
// uint64 words, so one masked predecessor lookup (Packed.PredOf)
// advances every state of a lane at once. Every catalog language has
// W = 1.
//
// A sweep is one level-synchronous loop on the caller's goroutine. The
// words are stored lane-major (word k·n+v holds states 64k..64k+63 of
// vertex v), and the frontier lists hold lane-vertex ids k·n+v. A round
// pushes each frontier word through its vertex's in-edges into every
// target lane (expand); cur, the frontier words, is installed between
// rounds (deliver) and only read while expanding. Rounds repeat until
// the frontier is empty, or until every source of a target group is
// answered (goalProbe, rspq.go): the probe runs before every round, and
// inside a round after each frontier word that admitted a state of one
// of the sources' out-neighbours, so a round stops at the admission that
// answers its last source rather than at its end.
// Parallelism lives one level up: a batch fans its target groups out
// over a worker pool (evaluator.solvePairs), each group's sweep on its
// worker's goroutine.
//
// The round at which a bit first turns on IS its exact BFS distance, and
// the words are the sweep's only visited set: once it ends they are
// readable as a.co (visited) until the arena's next sweep, which zeroes
// them (arena.growWords). Mark-only, that is all a sweep leaves. A sweep
// with links also writes each bit's level into a.dist[v·m + q] when the
// round's words are installed — one scalar write per reached state. The
// links themselves are never stored: a shortest walk is read off the
// distances afterwards (product.walkFrom), one step at a time to a
// neighbour one level closer. Walks need a DFA; every sweep that asks for
// links is a product sweep.

// sinks are the optional listeners of a sweep: the kernel telemetry
// counters (the Engine wires them) and the
// per-query trace recording. Either may be nil.
type sinks struct {
	counts *exchCounters
	tr     *kernelTrace
}

// sweepEnv is what a backward sweep runs over: the pinned view, the
// state count m of the automaton riding on it (product ids are
// vertex·m + state), the map from the view's label ids to the
// automaton's alphabet positions (-1 when absent) and the sinks.
type sweepEnv struct {
	vw   *graph.View
	n, m int
	lmap []int16
	sinks
}

func makeSweepEnv(vw *graph.View, m int, lmap []int16, sk sinks) sweepEnv {
	return sweepEnv{vw: vw, n: vw.NumVertices(), m: m, lmap: lmap, sinks: sk}
}

// labelMap fills dst, grown in place, with the position in alpha of each
// of vw's label ids, -1 when absent.
func labelMap(dst []int16, vw *graph.View, alpha automaton.Alphabet) []int16 {
	L := vw.NumLabels()
	if cap(dst) < L {
		dst = make([]int16, L)
	}
	dst = dst[:L]
	for lid := range dst {
		dst[lid] = int16(alpha.Index(vw.Label(lid)))
	}
	return dst
}

// frontier is the level scratch of a running sweep, kept in the arena:
// the current level's list of lane-vertex ids and the next one's. Between
// sweeps both are empty: a sweep ends on an empty frontier, or drops it
// when it stops.
type frontier struct {
	fr, nx []int32
}

// swap makes the next level the current one.
func (f *frontier) swap() { f.fr, f.nx = f.nx, f.fr[:0] }

// packedSweep is the state of one running sweep.
type packedSweep struct {
	sweepEnv
	pk    *automaton.Packed
	a     *arena // a.lv, a.dirty, and with links a.dist
	links bool
	lanes int32 // W
	d     int32 // the level the current round discovers

	// Lane-vertex words. vis accumulates every state seen; cur is nonzero
	// exactly on the frontier between rounds; nxt collects a round's
	// discoveries and is zero between rounds.
	vis, cur, nxt []uint64

	pr *goalProbe // nil: no sources, the sweep runs to the end
}

// sweepPacked runs the backward sweep over view × pk toward the goal (y,
// accepting), accept marking pk's accepting states. It leaves the
// closure in a.co and, with links (pk a DFA's table), exact BFS
// distances in a.dist wherever a.co holds. A product sweep given the
// probe of its sources stops once all are answered (goalProbe) — before
// a round or inside one — reporting that it stopped; pr is nil
// otherwise.
func (e *sweepEnv) sweepPacked(a *arena, pk *automaton.Packed, accept []bool, y int, links bool, pr *goalProbe) (stopped bool) {
	e.sweepStarted()
	lv := &a.lv
	W := pk.Lanes()
	r := packedSweep{sweepEnv: *e, pk: pk, a: a, links: links, lanes: int32(W), pr: pr}
	r.vis, r.cur, r.nxt = a.growWords(W * e.n)
	a.co = visited{w: r.vis, n: e.n, m: e.m}
	if links {
		a.dist = slices.Grow(a.dist[:0], e.n*e.m)[:e.n*e.m]
	}
	for k := 0; k < W; k++ {
		if seed := automaton.AcceptMask(accept, k); seed != 0 {
			r.admit(int32(k*e.n+y), seed, 0)
		}
	}
	r.deliver() // level 0: the goal states
	for len(lv.fr) > 0 {
		if pr != nil && pr.answered(&r) {
			pr.settle(&r, r.d+1)
			stopped = true
			break
		}
		r.d++
		t0, total := e.roundStart(), len(lv.fr)
		cut := r.expand()
		r.deliver()
		e.roundEnd(t0, total)
		if cut {
			pr.settle(&r, r.d)
			stopped = true
			break
		}
	}
	if stopped {
		e.sweepStopped(r.d + 1)
		for _, kv := range lv.fr { // cur is zero again, as at the end of a full sweep
			r.cur[kv] = 0
		}
		lv.fr = lv.fr[:0]
	}
	e.runDone(r.d)
	return stopped
}

// split returns the vertex and the lane of lane-vertex id kv.
func (r *packedSweep) split(kv int32) (v, k int32) {
	if r.lanes == 1 {
		return kv, 0
	}
	n := int32(r.n)
	return kv % n, kv / n
}

// admit merges the newly discovered states add (none of them in old,
// the visited word) into lane-vertex kv, queueing kv for the next
// frontier on its first discovery of the round.
func (r *packedSweep) admit(kv int32, add, old uint64) {
	if old == 0 {
		r.a.noteDirty(kv)
	}
	if r.nxt[kv] == 0 {
		r.a.lv.nx = append(r.a.lv.nx, kv)
	}
	r.vis[kv] = old | add
	r.nxt[kv] |= add
}

// mark turns state q of vertex v on at level d unless it is visited: a
// state a stopping sweep answers without a round admitting it
// (goalProbe.settle).
func (r *packedSweep) mark(v, q int, d int32) {
	kv := int32((q>>6)*r.n + v)
	bit := uint64(1) << (uint(q) & 63)
	old := r.vis[kv]
	if old&bit != 0 { // a source may be listed twice
		return
	}
	if old == 0 {
		r.a.noteDirty(kv)
	}
	r.vis[kv] = old | bit
	if r.links {
		r.a.dist[v*r.m+q] = d
	}
	if r.tr != nil {
		r.tr.statesReached++
	}
}

// expand runs one round: push each frontier word's predecessor words in
// every target lane through its vertex's in-edges and admit the states
// not yet visited. After a frontier word that admitted a state of a
// watched vertex it asks the probe whether the sources are answered, and
// if they are it cuts the round there, reporting so.
func (r *packedSweep) expand() (cut bool) {
	n, L := int32(r.n), r.vw.NumLabels()
	var watch []uint64 // nil without sources
	if r.pr != nil {
		watch = r.pr.watch
	}
	for _, kv := range r.a.lv.fr {
		hit := false
		cw := r.cur[kv]
		v, k := r.split(kv)
		for kt := int32(0); kt < r.lanes; kt++ {
			off := kt * n
			vis := r.vis[off : off+n]
			for lid := 0; lid < L; lid++ {
				di := r.lmap[lid]
				if di < 0 {
					continue
				}
				pw := r.pk.PredOf(cw, int(k), int(kt), int(di))
				if pw == 0 {
					continue
				}
				for _, u := range r.vw.InWithID(int(v), lid) {
					old := vis[u]
					if add := pw &^ old; add != 0 {
						r.admit(off+u, add, old)
						if watch != nil && watch[u>>6]>>(uint(u)&63)&1 != 0 {
							hit = true
						}
					}
				}
			}
		}
		if hit && r.pr.answeredMidRound(r) {
			return true
		}
	}
	return false
}

// deliver ends a round: install the next frontier words — clearing the
// old ones — and, with links, write the level of every state they turn
// on; then swap the frontier lists.
func (r *packedSweep) deliver() {
	lv := &r.a.lv
	for _, kv := range lv.fr {
		r.cur[kv] = 0
	}
	if r.tr != nil {
		for _, kv := range lv.nx {
			r.tr.statesReached += bits.OnesCount64(r.nxt[kv])
		}
	}
	for _, kv := range lv.nx {
		w := r.nxt[kv]
		r.cur[kv], r.nxt[kv] = w, 0
		if r.links {
			v, k := r.split(kv)
			for base := int(v)*r.m + 64*int(k); w != 0; w &= w - 1 {
				r.a.dist[base+bits.TrailingZeros64(w)] = r.d
			}
		}
	}
	lv.swap()
}
