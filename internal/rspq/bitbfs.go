package rspq

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/automaton"
)

// This file implements the bit-parallel backward product sweep for DFAs
// with at most 64 states: the per-vertex sets of visited / frontier
// automaton states are packed into single uint64 words, so one
// AND/OR/masked predecessor lookup (automaton.Packed.PredOf) advances
// every state of a vertex at once, and the per-(vertex, state) inner
// loops of the generic kernels collapse into word operations. The
// kernels here are mark-only — no distances, no parent links — which is
// exactly what the existence surfaces (SolveExists, BatchSolveExists,
// Engine.Exists) and the baseline tier's pruning table need; the
// distance/witness form of the same sweep lives in distbits.go.
//
// Both forms are direction-optimizing (dirbfs.go): a top-down round
// expands frontier words through in-edges, a bottom-up round scans
// vertices whose words have not saturated and pulls missing bits from
// their out-neighbors' frontier words. Vertex words are bounded by the
// DFA's co-reachable state mask (Packed.CoReachMask): bits outside it
// can never be set, so a word equal to the mask is saturated. A second
// bitmap — one bit per vertex, set on saturation (arena.growSat) —
// word-batches the bottom-up scan: one complemented load tests 64
// vertices at once and TrailingZeros64 walks only the unsaturated
// ones, so flooding rounds skip the settled bulk of the graph at 64
// vertices per load. In the sharded kernels the bitmap's words straddle
// shard boundaries, so saturation bits are set with atomic Or and read
// with atomic loads; the sequential kernels use plain operations.
//
// The result is scattered into the same a.co stamped set the generic
// coReach fills, so every consumer — the baseline backtracking search,
// exportCoTable, the existence lookups — is kernel-blind.

// coReachBits is the sequential bit-parallel form of coReach.
func (p *product) coReachBits(y int, a *arena, pk *automaton.Packed) {
	p.addBitHit()
	accept := automaton.AcceptMask(p.d)
	coMask := pk.CoReachMask(accept)
	vis, cur, nxt := a.growWords(p.n)
	sat := a.growSat(p.n)
	frontEdges := int64(0)
	unvisEdges := int64(p.vw.NumEdges())
	seed := accept & coMask
	curQ, nxtQ := a.queue[:0], a.queue2[:0]
	if seed != 0 {
		vis[y] = seed
		cur[y] = seed
		if seed == coMask {
			sat[y>>6] |= 1 << uint(y&63)
		}
		curQ = append(curQ, int32(y))
		frontEdges += int64(p.vw.InDegree(y))
		unvisEdges -= int64(p.vw.OutDegree(y))
	}
	L := p.vw.NumLabels()
	var td, bu, sw int64
	dc := p.dirConfig()
	bottomUp := false
	for len(curQ) > 0 {
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(len(curQ)), int64(p.n))
		if bottomUp != prev {
			sw++
		}
		if bottomUp {
			bu++
		} else {
			td++
		}
		t0 := p.roundStart()
		front := len(curQ)
		frontEdges = 0
		nxtQ = nxtQ[:0]
		if bottomUp {
			// Word-batched unvisited scan: one complemented load tests 64
			// vertices, TrailingZeros64 walks only the unsaturated ones.
			for wi, sw64 := range sat {
				uw := ^sw64
				for uw != 0 {
					b := bits.TrailingZeros64(uw)
					uw &= uw - 1
					v := wi<<6 + b
					missing := coMask &^ vis[v]
					if missing == 0 {
						continue
					}
					add := p.buPullBits(pk, cur, v, missing, L)
					if add == 0 {
						continue
					}
					if vis[v] == 0 {
						unvisEdges -= int64(p.vw.OutDegree(v))
					}
					vis[v] |= add
					if vis[v] == coMask {
						sat[wi] |= 1 << uint(b)
					}
					nxt[v] = add
					nxtQ = append(nxtQ, int32(v))
					frontEdges += int64(p.vw.InDegree(v))
				}
			}
		} else {
			for _, v32 := range curQ {
				v := int(v32)
				cw := cur[v]
				for lid := 0; lid < L; lid++ {
					di := p.lmap[lid]
					if di < 0 {
						continue
					}
					pw := pk.PredOf(cw, int(di))
					if pw == 0 {
						continue
					}
					for _, u32 := range p.vw.InWithID(v, lid) {
						u := int(u32)
						add := pw &^ vis[u]
						if add == 0 {
							continue
						}
						if vis[u] == 0 {
							unvisEdges -= int64(p.vw.OutDegree(u))
						}
						if nxt[u] == 0 {
							nxtQ = append(nxtQ, u32)
							frontEdges += int64(p.vw.InDegree(u))
						}
						vis[u] |= add
						if vis[u] == coMask {
							sat[u>>6] |= 1 << uint(u&63)
						}
						nxt[u] |= add
					}
				}
			}
		}
		// Install the next frontier words: clear the old ones first (the
		// lists never share a vertex — nxt bits are new by construction).
		for _, v := range curQ {
			cur[v] = 0
		}
		for _, v := range nxtQ {
			cur[v] = nxt[v]
			nxt[v] = 0
		}
		curQ, nxtQ = nxtQ, curQ
		p.roundEnd(&dc, t0, bottomUp, front)
	}
	p.runDone(&dc, td, bu, sw)
	a.queue, a.queue2 = curQ[:0], nxtQ[:0]
	p.scatterBits(a, vis)
}

// buPullBits collects the missing states of v reachable in one step
// into any out-neighbor's frontier word, stopping as soon as the
// missing set is covered.
func (p *product) buPullBits(pk *automaton.Packed, cur []uint64, v int, missing uint64, L int) uint64 {
	add := uint64(0)
	for lid := 0; lid < L; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		for _, u := range p.vw.OutWithID(v, lid) {
			cw := cur[u]
			if cw == 0 {
				continue
			}
			add |= pk.PredOf(cw, int(di)) & missing
			if add == missing {
				return add
			}
		}
	}
	return add
}

// scatterBits translates the packed visited words into the a.co
// stamped set over product ids — the contract every coReach consumer
// reads.
func (p *product) scatterBits(a *arena, vis []uint64) {
	a.co.reset(p.n * p.m)
	for v := 0; v < p.n; v++ {
		w := vis[v]
		base := v * p.m
		for w != 0 {
			q := bits.TrailingZeros64(w)
			w &= w - 1
			a.co.add(base + q)
		}
	}
}

// coReachBitsSharded is the frontier-exchange form of coReachBits. The
// per-vertex word arrays are row-partitioned like every other search
// array: shard s writes vis/nxt only for its own rows, cross-shard
// discoveries travel as packed exWord messages, and bottom-up rounds
// read only cur — the frontier words installed at the last barrier —
// so the phases stay race-free without locks. Frontier lists hold
// vertices (not product ids): the word IS the per-vertex state set.
func (p *product) coReachBitsSharded(y int, a *arena, pk *automaton.Packed) {
	p.addBitHit()
	K := p.parts.K
	a.co.reset(p.n * p.m)
	accept := automaton.AcceptMask(p.d)
	coMask := pk.CoReachMask(accept)
	vis, cur, nxt := a.growWords(p.n)
	sat := a.growSat(p.n)
	ex := getExch(K)
	home := p.parts.owner(y)
	frontEdges, unvisEdges := int64(0), int64(p.vw.NumEdges())
	seed := accept & coMask
	if seed != 0 {
		vis[y] = seed
		cur[y] = seed
		if seed == coMask {
			sat[y>>6] |= 1 << uint(y&63)
		}
		ex.fr[home] = append(ex.fr[home], int32(y))
		frontEdges += int64(p.vw.InDegree(y))
		unvisEdges -= int64(p.vw.OutDegree(y))
	}
	W := exchangeWorkers(K)
	total := len(ex.fr[home])
	var td, bu, sw int64
	dc := p.dirConfig()
	bottomUp := false
	for total > 0 {
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(total), int64(p.n))
		if bottomUp != prev {
			sw++
		}
		t0 := p.roundStart()
		ex.clearAccum()
		if bottomUp {
			bu++
			parShards(W, K, func(s int) { p.buExpandBits(ex, s, pk, coMask, vis, cur, nxt, sat) })
		} else {
			td++
			parShards(W, K, func(s int) { p.tdExpandBits(ex, K, s, pk, coMask, vis, cur, nxt, sat) })
		}
		parShards(W, K, func(s int) { p.deliverBits(ex, K, s, bottomUp, coMask, vis, cur, nxt, sat, false) })
		fe, ue := ex.sumAccum()
		frontEdges = fe
		unvisEdges -= ue
		p.roundEnd(&dc, t0, bottomUp, total)
		total = frontierTotal(ex, K)
	}
	p.runDone(&dc, td, bu, sw)
	ex.release()
	parShards(exchangeWorkers(K), K, func(s int) { p.scatterBitsShard(a, s, vis) })
}

// tdExpandBits is the top-down expand phase of one bit-parallel round
// for shard s: push each frontier vertex's predecessor words through
// the shard's reverse adjacency; own rows settle immediately,
// cross-shard words are boxed. Saturation bits are set with atomic Or:
// the bitmap's words straddle shard boundaries, so a boundary word may
// be written by two owners in the same phase.
func (p *product) tdExpandBits(ex *exch, K, s int, pk *automaton.Packed, coMask uint64, vis, cur, nxt, sat []uint64) {
	lo, hi := p.parts.bounds(s)
	L := p.vw.NumLabels()
	for _, v32 := range ex.fr[s] {
		v := int(v32)
		cw := cur[v]
		for lid := 0; lid < L; lid++ {
			di := p.lmap[lid]
			if di < 0 {
				continue
			}
			pw := pk.PredOf(cw, int(di))
			if pw == 0 {
				continue
			}
			for _, u32 := range p.vw.InWithID(v, lid) {
				u := int(u32)
				if u >= lo && u < hi {
					add := pw &^ vis[u]
					if add == 0 {
						continue
					}
					if vis[u] == 0 {
						ex.ue[s] += int64(p.vw.OutDegree(u))
					}
					if nxt[u] == 0 {
						ex.nx[s] = append(ex.nx[s], u32)
						ex.fe[s] += int64(p.vw.InDegree(u))
					}
					vis[u] |= add
					if vis[u] == coMask {
						atomic.OrUint64(&sat[u>>6], 1<<uint(u&63))
					}
					nxt[u] |= add
					continue
				}
				t := p.parts.owner(u)
				ex.wbox[s*K+t] = append(ex.wbox[s*K+t], exWord{v: u32, bits: pw})
			}
		}
	}
}

// buExpandBits is the bottom-up expand phase of one bit-parallel round
// for shard s: pull missing bits for every unsaturated own row from the
// out-neighbors' frontier words (cur is read-only during the phase, so
// cross-shard reads are safe). The scan is word-batched over the
// saturation bitmap — boundary words are masked to the shard's vertex
// range and read atomically, because their remaining bits belong to
// neighboring shards that may be writing them in the same phase.
func (p *product) buExpandBits(ex *exch, s int, pk *automaton.Packed, coMask uint64, vis, cur, nxt, sat []uint64) {
	L := p.vw.NumLabels()
	lo, hi := p.parts.bounds(s)
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		uw := ^atomic.LoadUint64(&sat[wi])
		base := wi << 6
		if base < lo {
			uw &^= (1 << uint(lo-base)) - 1
		}
		if r := hi - base; r < 64 {
			uw &= (1 << uint(r)) - 1
		}
		for uw != 0 {
			b := bits.TrailingZeros64(uw)
			uw &= uw - 1
			v := base + b
			missing := coMask &^ vis[v]
			if missing == 0 {
				continue
			}
			add := uint64(0)
		pull:
			for lid := 0; lid < L; lid++ {
				di := p.lmap[lid]
				if di < 0 {
					continue
				}
				for _, u := range p.vw.OutWithID(v, lid) {
					cw := cur[u]
					if cw == 0 {
						continue
					}
					add |= pk.PredOf(cw, int(di)) & missing
					if add == missing {
						break pull
					}
				}
			}
			if add == 0 {
				continue
			}
			if vis[v] == 0 {
				ex.ue[s] += int64(p.vw.OutDegree(v))
			}
			vis[v] |= add
			if vis[v] == coMask {
				atomic.OrUint64(&sat[wi], 1<<uint(b))
			}
			nxt[v] = add
			ex.nx[s] = append(ex.nx[s], int32(v))
			ex.fe[s] += int64(p.vw.InDegree(v))
		}
	}
}

// deliverBits is the deliver phase of one bit-parallel round for shard
// s: drain the word outboxes (top-down rounds only — bottom-up sends
// nothing), then install the next frontier words, clearing the old
// ones so cur is nonzero exactly on frontier vertices at every barrier.
// When logged is set (the distance kernels), the installed words are
// also appended to the shard's witness log and the level sealed — the
// install point is exactly where a vertex's newly discovered bits for
// this round are complete.
func (p *product) deliverBits(ex *exch, K, s int, bottomUp bool, coMask uint64, vis, cur, nxt, sat []uint64, logged bool) {
	if !bottomUp {
		for t := 0; t < K; t++ {
			for _, w := range ex.wbox[t*K+s] {
				u := int(w.v)
				add := w.bits &^ vis[u]
				if add == 0 {
					continue
				}
				if vis[u] == 0 {
					ex.ue[s] += int64(p.vw.OutDegree(u))
				}
				if nxt[u] == 0 {
					ex.nx[s] = append(ex.nx[s], w.v)
					ex.fe[s] += int64(p.vw.InDegree(u))
				}
				vis[u] |= add
				if vis[u] == coMask {
					atomic.OrUint64(&sat[u>>6], 1<<uint(u&63))
				}
				nxt[u] |= add
			}
			ex.wbox[t*K+s] = ex.wbox[t*K+s][:0]
		}
	}
	for _, v := range ex.fr[s] {
		cur[v] = 0
	}
	for _, v := range ex.nx[s] {
		cur[v] = nxt[v]
		if logged {
			ex.lgV[s] = append(ex.lgV[s], v)
			ex.lgW[s] = append(ex.lgW[s], nxt[v])
		}
		nxt[v] = 0
	}
	if logged {
		ex.lgOff[s] = append(ex.lgOff[s], int32(len(ex.lgV[s])))
	}
	ex.fr[s], ex.nx[s] = ex.nx[s], ex.fr[s][:0]
}

// scatterBitsShard scatters one shard's rows of the packed visited
// words into a.co; the adds are owner-partitioned, so the scatter runs
// as one more parallel phase.
func (p *product) scatterBitsShard(a *arena, s int, vis []uint64) {
	lo, hi := p.parts.bounds(s)
	for v := lo; v < hi; v++ {
		w := vis[v]
		base := v * p.m
		for w != 0 {
			q := bits.TrailingZeros64(w)
			w &= w - 1
			a.co.add(base + q)
		}
	}
}
