package rspq

import (
	"math/bits"
	"sync/atomic"

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
// set.
//
// Both directions work on words: a top-down round expands frontier words
// through in-edges, a bottom-up round scans vertices whose words have
// not saturated and pulls missing bits from their out-neighbors'
// frontier words (cur — installed at the last barrier and read-only
// during expand phases, so cross-shard reads are safe). Vertex words are
// bounded by the DFA's co-reachable state mask (Packed.CoReachMask):
// bits outside it can never be set, so a word equal to the mask is
// saturated. A second bitmap — one bit per vertex, set on saturation
// (arena.growSat) — word-batches the bottom-up scan: one complemented
// load tests 64 vertices at once and TrailingZeros64 walks only the
// unsaturated ones, so flooding rounds skip the settled bulk of the
// graph at 64 vertices per load. The bitmap's words straddle shard
// boundaries, so saturation bits are set with atomic Or and read with
// atomic loads.
//
// The sweep is strictly level-synchronous in both directions, so the
// round at which a bit first turns on IS its exact BFS distance. Product
// ids are stamped when a round's words are installed, into the same
// arena outputs the id-list sweep fills — a.co mark-only; a.dst and
// a.dist with links — so every consumer is driver-blind. Packed words
// cannot carry per-id successor links, so with links each is claimed
// the instant `add = pred &^ visited` turns its bit on, while the
// discovering edge (and via Packed.StepIndex, the successor state) is in
// hand: top-down for own rows, bottom-up always (pulls are own-row), and
// from the message — which carries its edge — when the owner merges a
// cross-shard word. Each bit turns on once, so each link is written
// once, by its owner: O(nm) scalar writes over the whole search, no
// post-pass. Distances equal the id-list sweep's bit for bit; links may
// name a different, equally short, successor.

// packedSweep is the state of one running packed sweep, kept in the
// arena so the phases can be handed to fanOut without allocating.
type packedSweep struct {
	p      product
	pk     *automaton.Packed
	a      *arena   // a.ex, and with links dist/parent/plabel
	marks  *stamped // the visited set: a.dst with links, a.co without
	links  bool
	d      int32  // the level the current round discovers
	coMask uint64 // the DFA states that can reach acceptance at all

	// Per-vertex words. vis accumulates every state seen; cur is nonzero
	// exactly on the frontier vertices at every barrier; nxt collects a
	// round's discoveries and is zero at every barrier.
	vis, cur, nxt, sat []uint64
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
	accept := automaton.AcceptMask(p.d)
	r := &a.bits
	*r = packedSweep{p: *p, pk: pk, a: a, marks: a.beginSweep(p.n*p.m, links), links: links, coMask: pk.CoReachMask(accept)}
	r.vis, r.cur, r.nxt = a.growWords(p.n)
	r.sat = a.growSat(p.n)
	home := p.parts.owner(y)
	if seed := accept & r.coMask; seed != 0 {
		r.admit(home, int32(y), seed)
		r.deliver(home) // level 0: the goal states
	}
	frontEdges, ue := ex.drainAccum()
	unvisEdges := int64(p.vw.NumEdges()) - ue
	W := exchangeWorkers(K)
	dc := p.dirConfig()
	bottomUp := false
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
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(total), int64(p.n))
		t0 := p.roundStart()
		if bottomUp {
			fanOut(W, K, r, phBottomUp)
		} else {
			fanOut(W, K, r, phTopDown)
		}
		fanOut(W, K, r, phDeliver)
		frontEdges, ue = ex.drainAccum()
		unvisEdges -= ue
		p.roundEnd(&dc, t0, bottomUp, total)
	}
	p.runDone(&dc)
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
	switch ph {
	case phTopDown:
		r.topDown(s)
	case phBottomUp:
		r.bottomUp(s)
	case phDeliver:
		r.deliver(s)
	}
}

// admit merges the newly discovered states add (none of them visited)
// into own-row vertex u: queue u for shard s's next frontier on its
// first discovery of the round, account its degrees, flag saturation.
func (r *packedSweep) admit(s int, u int32, add uint64) {
	ex, vw := &r.a.ex, r.p.vw
	if r.vis[u] == 0 {
		ex.ue[s] += int64(vw.OutDegree(int(u)))
	}
	if r.nxt[u] == 0 {
		ex.nx[s] = append(ex.nx[s], u)
		ex.fe[s] += int64(vw.InDegree(int(u)))
	}
	r.vis[u] |= add
	r.nxt[u] |= add
	if r.vis[u] == r.coMask {
		atomic.OrUint64(&r.sat[u>>6], 1<<uint(u&63))
	}
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

// topDown is the expand phase of a top-down round for shard s: push each
// frontier vertex's predecessor words through its in-edges; own rows
// settle immediately, cross-shard words are boxed with their edge.
func (r *packedSweep) topDown(s int) {
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

// bottomUp is the expand phase of a bottom-up round for shard s: pull
// missing bits for every unsaturated own row from the out-neighbors'
// frontier words. The scan is word-batched over the saturation bitmap —
// boundary words are masked to the shard's vertex range and read
// atomically, because their remaining bits belong to neighboring shards
// that may be writing them in the same phase.
func (r *packedSweep) bottomUp(s int) {
	lo, hi := r.p.parts.bounds(s)
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		uw := ^atomic.LoadUint64(&r.sat[wi])
		base := wi << 6
		if base < lo {
			uw &^= (1 << uint(lo-base)) - 1
		}
		if rem := hi - base; rem < 64 {
			uw &= (1 << uint(rem)) - 1
		}
		for ; uw != 0; uw &= uw - 1 {
			v := base + bits.TrailingZeros64(uw)
			if missing := r.coMask &^ r.vis[v]; missing != 0 {
				if add := r.pull(v, missing); add != 0 {
					r.admit(s, int32(v), add)
				}
			}
		}
	}
}

// pull collects the missing states of v that step into any
// out-neighbor's frontier word, stopping as soon as the missing set is
// covered. With links it claims each bit's successor the moment the bit
// is collected; bits an earlier edge collected are masked out of later
// matches, so each link is written once.
func (r *packedSweep) pull(v int, missing uint64) uint64 {
	p := &r.p
	add := uint64(0)
	for lid, L := 0, p.vw.NumLabels(); lid < L; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		for _, u := range p.vw.OutWithID(v, lid) {
			cw := r.cur[u]
			if cw == 0 {
				continue
			}
			got := r.pk.PredOf(cw, int(di)) & missing
			if got == 0 {
				continue
			}
			if r.links {
				r.claim(int32(v), got, u, lid)
			}
			add |= got
			if missing &^= got; missing == 0 {
				return add
			}
		}
	}
	return add
}

// deliver is the second phase of every round for shard s: merge the
// word outboxes addressed to s (empty after a bottom-up expand, and
// always with one shard), then install the next frontier words —
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
