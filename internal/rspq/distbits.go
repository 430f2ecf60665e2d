package rspq

import (
	"math/bits"

	"repro/internal/automaton"
)

// This file implements the bit-parallel DISTANCE kernels: the
// ≤64-state packed form of distToGoal, which the shortest-walk and
// batch-walk tiers dispatch to. The mark-only sweep of bitbfs.go
// cannot serve them directly — packed vertex words cannot carry the
// per-id successor links distToGoal exists to record — but the sweep
// is strictly level-synchronous in both directions (top-down expands
// only the at-barrier frontier words, bottom-up pulls only from them),
// so the round at which a bit first turns on IS its exact BFS
// distance. The kernels exploit that:
//
//  1. Run the packed coReach sweep level-synchronously, appending each
//     round's newly visited word-set to a per-level witness log — a
//     compact (vertex, word) list per round, sealed at every barrier
//     (arena.wlog sequentially, per-shard exch logs in the exchange).
//  2. Replay the log FORWARD over levels afterward: level d's words
//     are exactly the states at distance d, so stamping a.dst/a.dist
//     is one O(levels × dirty words) pass over the log — no per-id
//     distance bookkeeping during the sweep.
//
// Successor links split by kernel form. The sequential sweep records
// them at DISCOVERY time: the instant `add = pred &^ visited` turns a
// bit on, the edge (and via Packed.StepIndex, the successor state)
// that produced it is in hand, so the parent is one scalar write —
// O(nm) total across the whole search, with no post-pass edge scans
// and no per-edge successor arrays. The sharded sweep cannot do that:
// a bit is discovered inside another shard's expand phase and only
// resolved when its owner merges the accumulators, by which point the
// discovering edge is gone — so the sharded replay re-derives links
// level by level with the same PredOf word test the sweep used
// (owner-partitioned writes, race-free). Both forms fill the same
// a.dst/a.dist/a.parent/a.plabel outputs the generic kernels produce,
// so every consumer (sharedWalkFrom, exportGoalTable,
// BaselineShortest's lower bounds) is kernel-blind. Distances are
// bit-equal to distToGoalSeq; parent links may name a different,
// equally short, successor — the same latitude the sharded exchange
// already has.

// witLog is the per-level witness log of a sequential bit-parallel
// distance search: parallel (vertex, word) arrays plus cumulative
// level boundaries. Level d's entries span [off[d-1], off[d]) with
// off[-1] = 0; level 0 is the seed. All three slices are arena-pooled
// and grow-only, so warm searches append without allocating.
type witLog struct {
	v   []int32
	w   []uint64
	off []int32
}

func (l *witLog) reset() {
	l.v, l.w, l.off = l.v[:0], l.w[:0], l.off[:0]
}

func (l *witLog) append(v int32, w uint64) {
	l.v = append(l.v, v)
	l.w = append(l.w, w)
}

// seal closes the current level at the present log length.
func (l *witLog) seal() { l.off = append(l.off, int32(len(l.v))) }

func (l *witLog) levels() int { return len(l.off) }

// level returns the entry range of level d.
func (l *witLog) level(d int) (lo, hi int32) {
	if d > 0 {
		lo = l.off[d-1]
	}
	return lo, l.off[d]
}

// distToGoalBits is the sequential bit-parallel form of distToGoal:
// the coReachBits sweep plus witness logging and discovery-time parent
// recording, then the distance-stamping replay pass.
func (p *product) distToGoalBits(y int, a *arena, pk *automaton.Packed) {
	p.addBitHit()
	accept := automaton.AcceptMask(p.d)
	coMask := pk.CoReachMask(accept)
	vis, cur, nxt := a.growWords(p.n)
	sat := a.growSat(p.n)
	a.growProduct(p.n * p.m) // parents are written as bits are discovered
	a.wlog.reset()
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
		a.wlog.append(int32(y), seed)
		frontEdges += int64(p.vw.InDegree(y))
		unvisEdges -= int64(p.vw.OutDegree(y))
	}
	a.wlog.seal() // level 0: the goal states
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
					add := p.buPullBitsLinked(a, pk, cur, v, missing, L)
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
				vbase := v * p.m
				for lid := 0; lid < L; lid++ {
					di := p.lmap[lid]
					if di < 0 {
						continue
					}
					pw := pk.PredOf(cw, int(di))
					if pw == 0 {
						continue
					}
					label := p.vw.Label(lid)
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
						// Each bit turns on exactly once; claim its
						// parent here, while the discovering edge is
						// in hand.
						base := u * p.m
						for bb := add; bb != 0; {
							q := bits.TrailingZeros64(bb)
							bb &= bb - 1
							a.parent[base+q] = int32(vbase + pk.StepIndex(q, int(di)))
							a.plabel[base+q] = label
						}
					}
				}
			}
		}
		for _, v := range curQ {
			cur[v] = 0
		}
		for _, v := range nxtQ {
			cur[v] = nxt[v]
			a.wlog.append(v, nxt[v])
			nxt[v] = 0
		}
		a.wlog.seal()
		curQ, nxtQ = nxtQ, curQ
		p.roundEnd(&dc, t0, bottomUp, front)
	}
	p.runDone(&dc, td, bu, sw)
	a.queue, a.queue2 = curQ[:0], nxtQ[:0]
	p.stampWitnessLog(a, vis)
}

// buPullBitsLinked is buPullBits with discovery attribution: the pull
// is resolved label by label so each claimed bit's parent — the
// (successor vertex, Packed.StepIndex successor state) the matching
// PredOf word names — is written the moment it is claimed. Bits
// already claimed by an earlier edge are masked out of later matches,
// so each parent is written exactly once.
func (p *product) buPullBitsLinked(a *arena, pk *automaton.Packed, cur []uint64, v int, missing uint64, L int) uint64 {
	add := uint64(0)
	base := v * p.m
	for lid := 0; lid < L && missing != 0; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		label := p.vw.Label(lid)
		for _, u := range p.vw.OutWithID(v, lid) {
			cw := cur[u]
			if cw == 0 {
				continue
			}
			got := pk.PredOf(cw, int(di)) & missing
			if got == 0 {
				continue
			}
			missing &^= got
			add |= got
			ubase := int(u) * p.m
			for bb := got; bb != 0; {
				q := bits.TrailingZeros64(bb)
				bb &= bb - 1
				a.parent[base+q] = int32(ubase + pk.StepIndex(q, int(di)))
				a.plabel[base+q] = label
			}
			if missing == 0 {
				return add
			}
		}
	}
	return add
}

// stampWitnessLog converts the per-level witness log into the
// distance half of the distToGoal contract: level d's logged bits are
// exactly the states at distance d, so one pass over the log stamps
// a.dst and a.dist and fills the reach list. Parents were already
// written at discovery time, so no linking pass runs here.
//
// The same pass restores the arena's zero-words invariant (growWords):
// at sweep exit cur and nxt are zero by construction and vis is non-zero
// exactly on the logged vertices, so a short sweep — one whose reach
// list survived — zeroes those entries and hands the words back clean.
func (p *product) stampWitnessLog(a *arena, vis []uint64) {
	nm := p.n * p.m
	a.dst.reset(nm)
	a.resetReach(nm)
	lg := &a.wlog
	for d := 0; d < lg.levels(); d++ {
		lo, hi := lg.level(d)
		for i := lo; i < hi; i++ {
			v, w := int(lg.v[i]), lg.w[i]
			base := v * p.m
			for b := w; b != 0; {
				q := bits.TrailingZeros64(b)
				b &= b - 1
				id := base + q
				a.dst.add(id)
				a.dist[id] = int32(d)
			}
			a.noteReachedWord(base, w)
			if a.reachOK {
				vis[v] = 0
			}
		}
	}
	if a.reachOK {
		a.wordsClean()
	}
}

// distToGoalBitsSharded is the frontier-exchange form of distToGoalBits:
// the coReachBitsSharded sweep with per-shard witness logs (appended in
// the deliver phase, where a round's words are complete), then a
// parallel replay — each level is linked shard-by-shard against the
// globally readable previous-level scratch, with a barrier before the
// level's words are installed by their owners.
func (p *product) distToGoalBitsSharded(y int, a *arena, pk *automaton.Packed) {
	p.addBitHit()
	K := p.parts.K
	accept := automaton.AcceptMask(p.d)
	coMask := pk.CoReachMask(accept)
	vis, cur, nxt := a.growWords(p.n)
	sat := a.growSat(p.n)
	ex := getExch(K)
	ex.resetLogs()
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
		ex.lgV[home] = append(ex.lgV[home], int32(y))
		ex.lgW[home] = append(ex.lgW[home], seed)
		frontEdges += int64(p.vw.InDegree(y))
		unvisEdges -= int64(p.vw.OutDegree(y))
	}
	for s := 0; s < K; s++ { // seal level 0 on every shard
		ex.lgOff[s] = append(ex.lgOff[s], int32(len(ex.lgV[s])))
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
		parShards(W, K, func(s int) { p.deliverBits(ex, K, s, bottomUp, coMask, vis, cur, nxt, sat, true) })
		fe, ue := ex.sumAccum()
		frontEdges = fe
		unvisEdges -= ue
		p.roundEnd(&dc, t0, bottomUp, total)
		total = frontierTotal(ex, K)
	}
	p.runDone(&dc, td, bu, sw)
	p.replayWitnessLogSharded(ex, K, a, pk, cur)
	// After the replay's last barrier the driver runs alone again: fill
	// the reach list from the per-shard logs and, for a short sweep, zero
	// the visited words of the logged vertices (growWords invariant). cur
	// and nxt are zero already: every round clears what it installed, and
	// the replay, which borrowed cur as its previous-level scratch, ends
	// on the empty level the last round sealed, clearing the one before.
	a.resetReach(p.n * p.m)
scan:
	for s := 0; s < K; s++ {
		for i, v := range ex.lgV[s] {
			a.noteReachedWord(int(v)*p.m, ex.lgW[s][i])
			if !a.reachOK {
				break scan
			}
			vis[v] = 0
		}
	}
	if a.reachOK {
		a.wordsClean()
	}
	ex.release()
}

// replayWitnessLogSharded is the parallel replay: every shard has the
// same level count (each seals every round), level d's stamps and
// links are owner-partitioned writes, and the previous-level scratch
// lvl is read-only during the link phase — its owner-partitioned
// updates run as a second, barrier-separated phase. lvl must be an
// all-zero n-word scratch (cur at sweep exit).
func (p *product) replayWitnessLogSharded(ex *exch, K int, a *arena, pk *automaton.Packed, lvl []uint64) {
	nm := p.n * p.m
	a.dst.reset(nm)
	a.growProduct(nm)
	levels := len(ex.lgOff[0])
	W := exchangeWorkers(K)
	for d := 0; d < levels; d++ {
		parShards(W, K, func(s int) { p.replayShardLevel(ex, s, a, pk, lvl, d) })
		parShards(W, K, func(s int) { installShardLevel(ex, s, lvl, d) })
	}
}

// replayShardLevel stamps and links shard s's level-d log entries; all
// writes land in the shard's own product rows.
func (p *product) replayShardLevel(ex *exch, s int, a *arena, pk *automaton.Packed, lvl []uint64, d int) {
	lo := int32(0)
	if d > 0 {
		lo = ex.lgOff[s][d-1]
	}
	hi := ex.lgOff[s][d]
	L := p.vw.NumLabels()
	for i := lo; i < hi; i++ {
		v, w := int(ex.lgV[s][i]), ex.lgW[s][i]
		base := v * p.m
		for b := w; b != 0; {
			q := bits.TrailingZeros64(b)
			b &= b - 1
			id := base + q
			a.dst.add(id)
			a.dist[id] = int32(d)
		}
		if d == 0 {
			continue
		}
		// The shard-local twin of linkLevel, walking the shard's forward
		// adjacency (own rows by definition of the log).
		remaining := w
		for lid := 0; lid < L && remaining != 0; lid++ {
			di := p.lmap[lid]
			if di < 0 {
				continue
			}
			label := p.vw.Label(lid)
			for _, u32 := range p.vw.OutWithID(v, lid) {
				pw := lvl[u32]
				if pw == 0 {
					continue
				}
				match := pk.PredOf(pw, int(di)) & remaining
				if match == 0 {
					continue
				}
				remaining &^= match
				ubase := int(u32) * p.m
				for match != 0 {
					q := bits.TrailingZeros64(match)
					match &= match - 1
					id := base + q
					a.parent[id] = int32(ubase + pk.StepIndex(q, int(di)))
					a.plabel[id] = label
				}
				if remaining == 0 {
					break
				}
			}
		}
	}
}

// installShardLevel swaps shard s's rows of the previous-level scratch
// to level d: clear the d-1 entries, then install the d entries (in
// that order — a vertex may gain bits at both levels).
func installShardLevel(ex *exch, s int, lvl []uint64, d int) {
	if d > 0 {
		lo := int32(0)
		if d > 1 {
			lo = ex.lgOff[s][d-2]
		}
		for i := lo; i < ex.lgOff[s][d-1]; i++ {
			lvl[ex.lgV[s][i]] = 0
		}
	}
	lo := int32(0)
	if d > 0 {
		lo = ex.lgOff[s][d-1]
	}
	for i := lo; i < ex.lgOff[s][d]; i++ {
		lvl[ex.lgV[s][i]] = ex.lgW[s][i]
	}
}
