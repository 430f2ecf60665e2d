package rspq

import (
	"math/bits"

	"repro/internal/automaton"
)

// This file implements the packed round driver: the backward product
// sweep for DFAs with at most 64 states. The per-vertex sets of visited /
// frontier automaton states are packed into single uint64 words, so one
// AND/OR/masked predecessor lookup (automaton.Packed.PredOf) advances
// every state of a vertex at once, and the per-(vertex, state) inner
// loops of the id-list sweep collapse into word operations. It is the
// same level-synchronous loop as arcsweep.go, with vertices instead of
// product ids in the frontier lists: the word IS the per-vertex state
// set. A round pushes each frontier word through the vertex's in-edges
// (expand); cur, the frontier words, is installed between rounds
// (deliver) and only read while expanding.
//
// The sweep is strictly level-synchronous, so the round at which a bit
// first turns on IS its exact BFS distance. Product ids are stamped when
// a round's words are installed, into the same arena outputs the id-list
// sweep fills — a.co mark-only; a.dst and a.dist with links — so every
// consumer is driver-blind. Packed words cannot carry per-id successor
// links, so with links each is claimed the instant `add = pred &^
// visited` turns its bit on, while the discovering edge (and via
// Packed.StepIndex, the successor state) is in hand. Each bit turns on
// once, so each link is written once: O(nm) scalar writes over the whole
// search, no post-pass. Distances equal the id-list sweep's bit for bit;
// links may name a different, equally short, successor.

// packedSweep is the state of one running packed sweep.
type packedSweep struct {
	p     product
	pk    *automaton.Packed
	a     *arena   // a.lv, and with links dist/parent/plabel
	marks *stamped // the visited set: a.dst with links, a.co without
	links bool
	d     int32 // the level the current round discovers

	// Per-vertex words. vis accumulates every state seen; cur is nonzero
	// exactly on the frontier vertices between rounds; nxt collects a
	// round's discoveries and is zero between rounds.
	vis, cur, nxt []uint64
}

// sweepPacked is the packed round driver, with sweepArcs's contract:
// mark-only the closure in a.co; with links a.dst/a.dist/a.parent/
// a.plabel and the reach list; given sources, the stop once all are
// answered.
func (p *product) sweepPacked(y int, a *arena, pk *automaton.Packed, links bool, pr goalProbe) (stopped bool) {
	p.addBitHit()
	lv := &a.lv
	r := packedSweep{p: *p, pk: pk, a: a, marks: a.beginSweep(p.n*p.m, links), links: links}
	r.vis, r.cur, r.nxt = a.growWords(p.n)
	if seed := automaton.AcceptMask(p.d); seed != 0 {
		r.admit(int32(y), seed)
		r.deliver() // level 0: the goal states
	}
	for len(lv.fr) > 0 {
		if links && a.reachOK {
			// cur holds exactly the bits the last round turned on.
			for _, v := range lv.fr {
				a.noteReachedWord(int(v)*p.m, r.cur[v])
			}
		}
		if pr.answered(a, r.marks, r.d+1, links) {
			stopped = true
			p.sweepStopped(r.d + 1)
			for _, v := range lv.fr { // cur is zero again, as at the end of a full sweep
				r.cur[v] = 0
			}
			lv.fr = lv.fr[:0]
			break
		}
		r.d++
		t0, total := p.roundStart(), len(lv.fr)
		r.expand()
		r.deliver()
		p.roundEnd(t0, total)
	}
	p.runDone(r.d)
	// The arena keeps its words zero between sweeps (growWords). cur and
	// nxt are zero again — by construction, or zeroed at the stop — and
	// vis is non-zero exactly on the reached vertices, so a short sweep —
	// one whose reach list survived — zeroes those and hands the words
	// back clean.
	if links && a.reachOK {
		for _, id := range a.reach {
			r.vis[int(id)/p.m] = 0
		}
		a.wordsClean()
	}
	return stopped
}

// admit merges the newly discovered states add (none of them visited)
// into vertex u, queueing u for the next frontier on its first discovery
// of the round.
func (r *packedSweep) admit(u int32, add uint64) {
	if r.nxt[u] == 0 {
		r.a.lv.nx = append(r.a.lv.nx, u)
	}
	r.vis[u] |= add
	r.nxt[u] |= add
}

// claim records the successor link of every state in add of vertex u,
// all discovered over the edge u → from with label id lid: the link
// names the state the DFA steps to, which sits in from's frontier word.
func (r *packedSweep) claim(u int32, add uint64, from int32, lid int) {
	p := &r.p
	di, label := int(p.lmap[lid]), p.vw.Label(lid)
	base, succ := int(u)*p.m, int(from)*p.m
	for ; add != 0; add &= add - 1 {
		q := bits.TrailingZeros64(add)
		r.a.parent[base+q] = int32(succ + r.pk.StepIndex(q, di))
		r.a.plabel[base+q] = label
	}
}

// expand runs one round: push each frontier vertex's predecessor words
// through its in-edges and admit the states not yet visited.
func (r *packedSweep) expand() {
	p := &r.p
	L := p.vw.NumLabels()
	for _, v := range r.a.lv.fr {
		cw := r.cur[v]
		for lid := 0; lid < L; lid++ {
			di := p.lmap[lid]
			if di < 0 {
				continue
			}
			pw := r.pk.PredOf(cw, int(di))
			if pw == 0 {
				continue
			}
			for _, u := range p.vw.InWithID(int(v), lid) {
				if add := pw &^ r.vis[u]; add != 0 {
					r.admit(u, add)
					if r.links {
						r.claim(u, add, v, lid)
					}
				}
			}
		}
	}
}

// deliver ends a round: install the next frontier words — clearing the
// old ones — and stamp the product ids they turn on, which is where a
// vertex's discoveries for the round are complete; then swap the
// frontier lists.
func (r *packedSweep) deliver() {
	lv, m := &r.a.lv, r.p.m
	for _, v := range lv.fr {
		r.cur[v] = 0
	}
	for _, v := range lv.nx {
		w := r.nxt[v]
		r.cur[v], r.nxt[v] = w, 0
		for base := int(v) * m; w != 0; w &= w - 1 {
			id := base + bits.TrailingZeros64(w)
			r.marks.add(id)
			if r.links {
				r.a.dist[id] = r.d
			}
		}
	}
	lv.swap()
}
