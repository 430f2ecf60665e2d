package rspq

import (
	"math/bits"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// This file implements the backward sweep, the one round driver every
// tractable tier answers from: backward reachability over view × A
// toward the goal (y, accepting). The baseline tier's co-reachability
// sweep and the walk-reduction tiers' distance/successor BFS run it with
// A = the minimal DFA (product.sweep); the summary tier runs it with
// A = the position NFA of a Ψtr plan (acquireSeqSearcher). Either way A
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
// the frontier is empty, or until the probe run between rounds finds
// every source of a target group answered (goalProbe, rspq.go).
// Parallelism lives one level up: a batch fans its target groups out
// over a worker pool (evaluator.solvePairs), each group's sweep on its
// worker's goroutine.
//
// The round at which a bit first turns on IS its exact BFS distance.
// Product ids (vertex·m + state) are stamped when a round's words are
// installed — into a.co mark-only; a.dst and a.dist with links. With
// links each successor link is claimed the instant `add = pred &^
// visited` turns its bit on, while the discovering edge (and via
// Packed.StepIndex, the successor state) is in hand. Each bit turns on
// once, so each link is written once: O(nm) scalar writes over the whole
// search, no post-pass. Links need a DFA; every sweep that asks for them
// is a product sweep.

// sinks are the optional listeners of a sweep: the kernel telemetry
// counters (Engine and BatchSolver.SetMetrics wire them) and the
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
	a     *arena   // a.lv, and with links dist/parent/plabel
	marks *stamped // the visited set: a.dst with links, a.co without
	links bool
	lanes int32 // W
	d     int32 // the level the current round discovers

	// Lane-vertex words. vis accumulates every state seen; cur is nonzero
	// exactly on the frontier between rounds; nxt collects a round's
	// discoveries and is zero between rounds.
	vis, cur, nxt []uint64
}

// sweepPacked runs the backward sweep over view × pk toward the goal (y,
// accepting), accept marking pk's accepting states. Mark-only it leaves
// the closure in a.co; with links (pk a DFA's table) it leaves validity
// stamps in a.dst, exact BFS distances in a.dist, for every reached
// non-goal id the successor one step closer to the goal and the label of
// that step in a.parent/a.plabel, and the reach list
// (arena.noteReached). A product sweep given sources probes them before
// every round and stops once all are answered (goalProbe), reporting
// that it stopped; pr is the zero probe otherwise.
func (e *sweepEnv) sweepPacked(a *arena, pk *automaton.Packed, accept []bool, y int, links bool, pr goalProbe) (stopped bool) {
	e.sweepStarted()
	lv := &a.lv
	W := pk.Lanes()
	r := packedSweep{sweepEnv: *e, pk: pk, a: a, marks: a.beginSweep(e.n*e.m, links), links: links, lanes: int32(W)}
	r.vis, r.cur, r.nxt = a.growWords(W * e.n)
	for k := 0; k < W; k++ {
		if seed := automaton.AcceptMask(accept, k); seed != 0 {
			r.admit(int32(k*e.n+y), seed, 0)
		}
	}
	r.deliver() // level 0: the goal states
	for len(lv.fr) > 0 {
		if links && a.reachOK {
			// cur holds exactly the bits the last round turned on.
			for _, kv := range lv.fr {
				v, k := r.split(kv)
				a.noteReachedWord(int(v)*e.m+64*int(k), r.cur[kv])
			}
		}
		if pr.answered(a, r.marks, r.d+1, links) {
			stopped = true
			e.sweepStopped(r.d + 1)
			for _, kv := range lv.fr { // cur is zero again, as at the end of a full sweep
				r.cur[kv] = 0
			}
			lv.fr = lv.fr[:0]
			break
		}
		r.d++
		t0, total := e.roundStart(), len(lv.fr)
		r.expand()
		r.deliver()
		e.roundEnd(t0, total)
	}
	e.runDone(r.d)
	// cur and nxt are zero again — by construction, or zeroed at the stop.
	a.cleanWords(r.vis)
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

// claim records the successor link of every state in add, lane k of
// vertex u, all discovered over the edge u → from with label id lid: the
// link names the state the DFA steps to, which sits in from's frontier
// word.
func (r *packedSweep) claim(u, k int32, add uint64, from int32, lid int) {
	di, label := int(r.lmap[lid]), r.vw.Label(lid)
	base, succ := int(u)*r.m, int(from)*r.m
	for ; add != 0; add &= add - 1 {
		q := 64*int(k) + bits.TrailingZeros64(add)
		r.a.parent[base+q] = int32(succ + r.pk.StepIndex(q, di))
		r.a.plabel[base+q] = label
	}
}

// expand runs one round: push each frontier word's predecessor words in
// every target lane through its vertex's in-edges and admit the states
// not yet visited.
func (r *packedSweep) expand() {
	n, L := int32(r.n), r.vw.NumLabels()
	for _, kv := range r.a.lv.fr {
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
						if r.links {
							r.claim(u, kt, add, v, lid)
						}
					}
				}
			}
		}
	}
}

// deliver ends a round: install the next frontier words — clearing the
// old ones — and stamp the product ids they turn on, which is where a
// lane-vertex's discoveries for the round are complete; then swap the
// frontier lists.
func (r *packedSweep) deliver() {
	lv := &r.a.lv
	for _, kv := range lv.fr {
		r.cur[kv] = 0
	}
	for _, kv := range lv.nx {
		w := r.nxt[kv]
		r.cur[kv], r.nxt[kv] = w, 0
		v, k := r.split(kv)
		for base := int(v)*r.m + 64*int(k); w != 0; w &= w - 1 {
			id := base + bits.TrailingZeros64(w)
			r.marks.add(id)
			if r.links {
				r.a.dist[id] = r.d
			}
		}
	}
	lv.swap()
}
