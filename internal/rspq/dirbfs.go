package rspq

import "sync/atomic"

// This file implements the direction-optimizing (Beamer-style) form of
// the backward product BFS. Every backward kernel — coReach, distToGoal
// and the summary tier's position-NFA sweep — is a level-synchronous
// BFS; each round it now picks one of two expansion strategies:
//
//	top-down   pop every frontier state (v, q) and walk v's in-edges
//	           through the reverse transition index — cost proportional
//	           to the frontier's in-degree sum;
//	bottom-up  scan every still-unvisited state (v, q') and walk v's
//	           OUT-edges through the forward transition function,
//	           stopping at the first successor discovered in an earlier
//	           round — cost proportional to the unvisited out-degree,
//	           which on flooding rounds (dense frontiers, most of the
//	           product already discovered) is far smaller.
//
// The classic switch heuristic compares the two estimates: go bottom-up
// when the frontier's edge count exceeds 1/α of the unvisited edge
// count, return to top-down when the frontier shrinks below 1/β of the
// id space. Both estimates are maintained incrementally from O(1)
// degree prefix-sum lookups (graph.View OutDegree and InDegree) as
// states are discovered.
//
// Correctness of the bottom-up rounds rests on the synchronous level
// structure: before round r, exactly the states at distance < r are
// visited, so a still-unvisited state's visited successors all sit at
// distance r-1 — linking to the first one found yields exact BFS
// distances (distToGoal's contract: BaselineShortest uses them as
// admissible lower bounds). The distance kernels therefore only accept
// successors from the previous level (dist == r-1 sequentially, the
// frontier-at-barrier stamp set in the sharded exchange), never marks
// made in the same round. The mark-only sweeps (coReach, summary) need
// only the closure, where observing same-round marks is harmless — the
// sequential forms exploit that, the sharded forms stay strictly
// synchronous because cross-shard reads of in-flight marks would race.

// Direction modes; the default DirAuto applies the α/β heuristic,
// DirTopDown and DirBottomUp pin every round (benchmark reference rows
// and the equivalence suite force both extremes).
type DirMode int32

const (
	DirAuto DirMode = iota
	DirTopDown
	DirBottomUp
)

// Default switch thresholds, per Beamer et al.: enter bottom-up when
// frontierEdges > unvisitedEdges/α, leave it when frontierSize <
// totalSize/β.
const (
	dirAlphaDefault = 14
	dirBetaDefault  = 24
)

// dirMinAvgDegree gates bottom-up on graph density. A bottom-up round
// costs one scan per unvisited id plus out-edge probes that only pay
// off when an early probe hits the frontier; on low-degree graphs
// (uniform random at average degree ~3, grids, layered DAGs) the probes
// exhaust a vertex's few edges without the early exit ever helping, and
// measured rounds run several times slower than top-down regardless of
// frontier shape. Bottom-up is therefore only considered when the
// average degree reaches this bar; DirBottomUp pins and the test-hook
// threshold overrides bypass the gate.
const dirMinAvgDegree = 16

// dirDense reports whether a graph with the given edge and vertex
// counts clears the bottom-up density gate.
func dirDense(edges, verts int) bool { return edges >= dirMinAvgDegree*verts }

var (
	dirMode        atomic.Int32
	bitParallelOff atomic.Bool

	// Threshold override hooks for the equivalence/race tests: forcing a
	// tiny α or β makes a search flip direction mid-run on small inputs.
	// 0 selects the defaults.
	dirAlphaOverride atomic.Int64
	dirBetaOverride  atomic.Int64
)

// SetDirectionMode pins the expansion direction of every backward
// product BFS round: DirAuto (the default) applies the size heuristic,
// DirTopDown and DirBottomUp force one strategy. Exposed for benchmark
// reference runs; the setting is global and takes effect on the next
// search.
func SetDirectionMode(m DirMode) { dirMode.Store(int32(m)) }

// SetBitParallel enables (default) or disables the ≤64-state
// bit-parallel kernels, forcing the generic per-state kernels when off.
// Exposed for benchmark reference runs; global, effective on the next
// search.
func SetBitParallel(on bool) { bitParallelOff.Store(!on) }

func bitParallelEnabled() bool { return !bitParallelOff.Load() }

// dirConfig is the per-search snapshot of every direction-heuristic
// input that stays constant for one whole search: the pinned mode, the
// α/β switch thresholds and the density-gate verdict. Kernels resolve
// it ONCE at search start — the former dirThresholds helper re-read the
// mode and override atomics on every round decision — and it doubles as
// the accumulator for the per-direction work and wall-time totals the
// α/β auto-tuner (tuner.go) learns from.
type dirConfig struct {
	mode  DirMode
	alpha int64
	beta  int64
	dense bool
	tuned bool // α/β came from the auto-tuner, not the defaults

	// Per-run tuner observations. choose credits the work estimate of
	// the direction it picks (frontier in-degree top-down, unvisited
	// out-degree bottom-up); product.roundEnd adds the measured wall
	// time; product.runDone feeds the finished run to the tuner.
	tdWork, buWork   int64
	tdNanos, buNanos int64
}

// resolveDirConfig snapshots the direction heuristic for one search
// over a graph with the given edge/vertex counts: mode, defaults, the
// density gate, then the test override hooks. Searches with a tuner in
// reach go through product.dirConfig, which layers the learned
// thresholds in before the overrides.
func resolveDirConfig(edges, verts int) dirConfig {
	dc := dirConfig{
		mode:  DirMode(dirMode.Load()),
		alpha: dirAlphaDefault,
		beta:  dirBetaDefault,
		dense: dirDense(edges, verts),
	}
	dc.applyOverrides()
	return dc
}

// applyOverrides layers the test-hook threshold atomics over whatever
// thresholds are in effect; they always win over the tuner.
func (dc *dirConfig) applyOverrides() {
	if v := dirAlphaOverride.Load(); v > 0 {
		dc.alpha = v
		dc.tuned = false
		// The test hook forces switches on arbitrarily small (and hence
		// sparse) inputs; the density gate must not mask them.
		dc.dense = true
	}
	if v := dirBetaOverride.Load(); v > 0 {
		dc.beta = v
		dc.tuned = false
	}
}

// dirConfig resolves the search's direction snapshot for a product
// kernel, letting the engine's auto-tuner (when wired) substitute the
// thresholds it has learned for this (graph epoch, automaton size)
// bucket before the test overrides are applied on top. The resolved
// thresholds are mirrored into the query trace when one is recording.
func (p *product) dirConfig() dirConfig {
	dc := dirConfig{
		mode:  DirMode(dirMode.Load()),
		alpha: dirAlphaDefault,
		beta:  dirBetaDefault,
		dense: dirDense(p.vw.NumEdges(), p.n),
	}
	if p.tun != nil {
		if alpha, beta, ok := p.tun.thresholds(p.vw.Epoch(), p.m); ok {
			dc.alpha, dc.beta, dc.tuned = alpha, beta, true
		}
	}
	dc.applyOverrides()
	if p.tr != nil {
		p.tr.alpha, p.tr.beta, p.tr.tuned = dc.alpha, dc.beta, dc.tuned
	}
	return dc
}

// choose decides the next round's direction from the current one and
// the incremental size estimates: frontEdges is the in-degree sum of
// the frontier, unvisEdges the out-degree sum of the unvisited ids,
// frontSize/totalSize the frontier and id-space cardinalities. Under
// DirAuto it also credits the chosen direction's work estimate to the
// tuner accumulators, so a finished run reports (work, time) pairs per
// direction.
func (dc *dirConfig) choose(bottomUp bool, frontEdges, unvisEdges, frontSize, totalSize int64) bool {
	switch dc.mode {
	case DirTopDown:
		return false
	case DirBottomUp:
		return true
	}
	if !bottomUp {
		bottomUp = dc.dense && frontEdges*dc.alpha > unvisEdges
	} else {
		bottomUp = frontSize*dc.beta >= totalSize
	}
	if bottomUp {
		dc.buWork += unvisEdges
	} else {
		dc.tdWork += frontEdges
	}
	return bottomUp
}

// coReachSeq is the sequential direction-optimizing co-reachability
// sweep (the K ≤ 1 form of coReach). It fills a.co with exactly the
// closure the strictly top-down kernel computed: backward closures are
// direction-independent, and the mark-only bottom-up rounds may freely
// observe same-round marks (they only converge faster).
func (p *product) coReachSeq(y int, a *arena) {
	nm := p.n * p.m
	a.co.reset(nm)
	cur, nxt := a.queue[:0], a.queue2[:0]
	frontEdges := int64(0)
	unvisEdges := int64(p.m) * int64(p.vw.NumEdges())
	for q := 0; q < p.m; q++ {
		if p.d.Accept[q] {
			id := p.id(y, q)
			a.co.add(id)
			cur = append(cur, int32(id))
			frontEdges += int64(p.vw.InDegree(y))
			unvisEdges -= int64(p.vw.OutDegree(y))
		}
	}
	L := p.vw.NumLabels()
	var td, bu, sw int64
	dc := p.dirConfig()
	bottomUp := false
	for len(cur) > 0 {
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(len(cur)), int64(nm))
		if bottomUp != prev {
			sw++
		}
		if bottomUp {
			bu++
		} else {
			td++
		}
		t0 := p.roundStart()
		front := len(cur)
		frontEdges = 0
		nxt = nxt[:0]
		if bottomUp {
			for v := 0; v < p.n; v++ {
				base := v * p.m
				for q := 0; q < p.m; q++ {
					id := base + q
					if a.co.has(id) || !p.buProbeCo(a, v, q, L) {
						continue
					}
					a.co.add(id)
					nxt = append(nxt, int32(id))
					frontEdges += int64(p.vw.InDegree(v))
					unvisEdges -= int64(p.vw.OutDegree(v))
				}
			}
		} else {
			for _, id := range cur {
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
					for _, u := range p.vw.InWithID(v, lid) {
						base := int(u) * p.m
						for _, qp := range preds {
							pid := base + int(qp)
							if !a.co.has(pid) {
								a.co.add(pid)
								nxt = append(nxt, int32(pid))
								frontEdges += int64(p.vw.InDegree(int(u)))
								unvisEdges -= int64(p.vw.OutDegree(int(u)))
							}
						}
					}
				}
			}
		}
		cur, nxt = nxt, cur
		p.roundEnd(&dc, t0, bottomUp, front)
	}
	p.runDone(&dc, td, bu, sw)
	a.queue, a.queue2 = cur[:0], nxt[:0]
}

// buProbeCo reports whether unvisited (v, q) has any already-marked
// product successor: the bottom-up membership probe of the mark-only
// sweep, walking v's out-edges through the forward transition function.
func (p *product) buProbeCo(a *arena, v, q, L int) bool {
	for lid := 0; lid < L; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		t := p.d.StepIndex(q, int(di))
		for _, u := range p.vw.OutWithID(v, lid) {
			if a.co.has(int(u)*p.m + t) {
				return true
			}
		}
	}
	return false
}

// distToGoalSeq is the sequential direction-optimizing distance/
// successor BFS (the K ≤ 1 form of distToGoal). Distances are exact:
// bottom-up rounds link only to successors of the previous level
// (dist == d-1), so the synchronous level invariant — after round d,
// visited = {dist ≤ d} — is preserved in both directions.
func (p *product) distToGoalSeq(y int, a *arena) {
	nm := p.n * p.m
	a.dst.reset(nm)
	a.resetReach(nm)
	a.growProduct(nm)
	cur, nxt := a.queue[:0], a.queue2[:0]
	frontEdges := int64(0)
	unvisEdges := int64(p.m) * int64(p.vw.NumEdges())
	for q := 0; q < p.m; q++ {
		if p.d.Accept[q] {
			id := p.id(y, q)
			a.dst.add(id)
			a.dist[id] = 0
			cur = append(cur, int32(id))
			frontEdges += int64(p.vw.InDegree(y))
			unvisEdges -= int64(p.vw.OutDegree(y))
		}
	}
	L := p.vw.NumLabels()
	var td, bu, sw int64
	dc := p.dirConfig()
	bottomUp := false
	for d := int32(1); len(cur) > 0; d++ {
		a.noteReached(cur) // every stamped id enters exactly one frontier
		prev := bottomUp
		bottomUp = dc.choose(bottomUp, frontEdges, unvisEdges, int64(len(cur)), int64(nm))
		if bottomUp != prev {
			sw++
		}
		if bottomUp {
			bu++
		} else {
			td++
		}
		t0 := p.roundStart()
		front := len(cur)
		frontEdges = 0
		nxt = nxt[:0]
		if bottomUp {
			for v := 0; v < p.n; v++ {
				base := v * p.m
				for q := 0; q < p.m; q++ {
					id := base + q
					if a.dst.has(id) {
						continue
					}
					if p.buProbeGoal(a, v, q, L, d, id) {
						nxt = append(nxt, int32(id))
						frontEdges += int64(p.vw.InDegree(v))
						unvisEdges -= int64(p.vw.OutDegree(v))
					}
				}
			}
		} else {
			for _, id := range cur {
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
					label := p.vw.Label(lid)
					for _, u := range p.vw.InWithID(v, lid) {
						base := int(u) * p.m
						for _, qp := range preds {
							pid := base + int(qp)
							if !a.dst.has(pid) {
								a.dst.add(pid)
								a.dist[pid] = d
								a.parent[pid] = id
								a.plabel[pid] = label
								nxt = append(nxt, int32(pid))
								frontEdges += int64(p.vw.InDegree(int(u)))
								unvisEdges -= int64(p.vw.OutDegree(int(u)))
							}
						}
					}
				}
			}
		}
		cur, nxt = nxt, cur
		p.roundEnd(&dc, t0, bottomUp, front)
	}
	p.runDone(&dc, td, bu, sw)
	a.queue, a.queue2 = cur[:0], nxt[:0]
}

// buProbeGoal settles unvisited (v, q) = id at distance d when some
// product successor sits exactly at the previous level; same-round
// marks (dist == d) are excluded to keep distances exact.
func (p *product) buProbeGoal(a *arena, v, q, L int, d int32, id int) bool {
	for lid := 0; lid < L; lid++ {
		di := p.lmap[lid]
		if di < 0 {
			continue
		}
		t := p.d.StepIndex(q, int(di))
		for _, u := range p.vw.OutWithID(v, lid) {
			sid := int(u)*p.m + t
			if a.dst.has(sid) && a.dist[sid] == d-1 {
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
