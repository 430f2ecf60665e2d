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
// same frontier exchange as shardbfs.go — K row ranges, an expand and a
// deliver phase a round, inline with one worker — with vertices instead
// of product ids in the frontier lists: the word IS the per-vertex state
// set. The expand phase pushes each frontier word through the vertex's
// in-edges; cur, the frontier words, is installed at the barrier and only
// read during expand phases.
//
// The sweep is strictly level-synchronous, so the round at which a bit
// first turns on IS its exact BFS distance. Product ids are stamped when
// a round's words are installed, into the same arena outputs the id-list
// sweep fills — a.co mark-only; a.dst and a.dist with links — so every
// consumer is driver-blind. Packed words cannot carry per-id successor
// links, so with links each is claimed the instant `add = pred &^
// visited` turns its bit on, while the discovering edge (and via
// Packed.StepIndex, the successor state) is in hand: in the expand phase
// for own rows, and from the message — which carries its edge — when the
// owner merges a cross-shard word. Each bit turns on once, so each link
// is written once, by its owner: O(nm) scalar writes over the whole
// search, no post-pass. Distances equal the id-list sweep's bit for bit;
// links may name a different, equally short, successor.

// packedSweep is the state of one running packed sweep, kept in the
// arena so the phases can be handed to fanOut without allocating.
type packedSweep struct {
	p     product
	pk    *automaton.Packed
	a     *arena   // a.ex, and with links dist/parent/plabel
	marks *stamped // the visited set: a.dst with links, a.co without
	links bool
	d     int32 // the level the current round discovers

	// Per-vertex words. vis accumulates every state seen; cur is nonzero
	// exactly on the frontier vertices at every barrier; nxt collects a
	// round's discoveries and is zero at every barrier.
	vis, cur, nxt []uint64
}

// sweepPacked is the packed round driver, with sweepArcs's contract:
// mark-only the closure in a.co; with links a.dst/a.dist/a.parent/
// a.plabel and the reach list; given sources, the stop once all are
// answered.
func (p *product) sweepPacked(y int, a *arena, pk *automaton.Packed, links bool, pr goalProbe) (stopped bool) {
	p.addBitHit()
	K := p.parts.K
	ex := &a.ex
	ex.reset(K)
	r := &a.bits
	*r = packedSweep{p: *p, pk: pk, a: a, marks: a.beginSweep(p.n*p.m, links), links: links}
	r.vis, r.cur, r.nxt = a.growWords(p.n)
	home := p.parts.owner(y)
	if seed := automaton.AcceptMask(p.d); seed != 0 {
		r.admit(home, int32(y), seed)
		r.deliver(home) // level 0: the goal states
	}
	W := exchangeWorkers(K)
	for total := len(ex.fr[home]); total > 0; total = ex.frontierTotal() {
		if links && a.reachOK {
			// Between rounds the driver runs alone, and cur holds exactly
			// the bits the last round turned on.
			for _, fr := range ex.fr {
				for _, v := range fr {
					a.noteReachedWord(int(v)*p.m, r.cur[v])
				}
			}
		}
		if pr.answered(a, r.marks, r.d+1, links) {
			stopped = true
			p.sweepStopped(r.d + 1)
			for _, fr := range ex.fr { // cur is zero again, as at the end of a full sweep
				for _, v := range fr {
					r.cur[v] = 0
				}
			}
			ex.dropFrontier()
			break
		}
		r.d++
		t0 := p.roundStart()
		fanOut(W, K, r, phExpand)
		fanOut(W, K, r, phDeliver)
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
	*r = packedSweep{} // drop the view and the DFA: the arena outlives them
	return stopped
}

func (r *packedSweep) phase(ph, s int) {
	if ph == phExpand {
		r.expand(s)
	} else {
		r.deliver(s)
	}
}

// admit merges the newly discovered states add (none of them visited)
// into own-row vertex u, queueing u for shard s's next frontier on its
// first discovery of the round.
func (r *packedSweep) admit(s int, u int32, add uint64) {
	if r.nxt[u] == 0 {
		r.a.ex.nx[s] = append(r.a.ex.nx[s], u)
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

// expand is the first phase of every round for shard s: push each
// frontier vertex's predecessor words through its in-edges; own rows
// settle immediately, cross-shard words are boxed with their edge.
func (r *packedSweep) expand(s int) {
	p, ex, K := &r.p, &r.a.ex, r.p.parts.K
	lo, hi := p.parts.bounds(s)
	L := p.vw.NumLabels()
	for _, v := range ex.fr[s] {
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
				if int(u) >= lo && int(u) < hi {
					if add := pw &^ r.vis[u]; add != 0 {
						r.admit(s, u, add)
						if r.links {
							r.claim(u, add, v, lid)
						}
					}
					continue
				}
				t := s*K + p.parts.owner(int(u))
				ex.wbox[t] = append(ex.wbox[t], exWord{v: u, from: v, bits: pw, lid: int32(lid)})
			}
		}
	}
}

// deliver is the second phase of every round for shard s: merge the
// word outboxes addressed to s (always empty with one shard), then install the next frontier words —
// clearing the old ones — and stamp the product ids they turn on, which
// is where a vertex's discoveries for the round are complete.
func (r *packedSweep) deliver(s int) {
	ex, K, m := &r.a.ex, r.p.parts.K, r.p.m
	for t := 0; t < K; t++ {
		for _, w := range ex.wbox[t*K+s] {
			if add := w.bits &^ r.vis[w.v]; add != 0 {
				r.admit(s, w.v, add)
				if r.links {
					r.claim(w.v, add, w.from, int(w.lid))
				}
			}
		}
		ex.wbox[t*K+s] = ex.wbox[t*K+s][:0]
	}
	for _, v := range ex.fr[s] {
		r.cur[v] = 0
	}
	for _, v := range ex.nx[s] {
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
	ex.fr[s], ex.nx[s] = ex.nx[s], ex.fr[s][:0]
}
