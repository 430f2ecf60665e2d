package rspq

import "sync/atomic"

// This file is the direction heuristic of the backward sweeps
// (Beamer-style direction-optimizing BFS). Both round drivers — the
// id-list sweep of shardbfs.go and the packed sweep of bitbfs.go — are
// level-synchronous, and each round they pick one of two expansion
// strategies:
//
//	top-down   pop every frontier state (v, q) and walk v's in-edges
//	           through the reverse transition arcs — cost proportional
//	           to the frontier's in-degree sum;
//	bottom-up  scan every still-unvisited state (v, q') and walk v's
//	           OUT-edges through the forward transition arcs, stopping
//	           at the first successor discovered in an earlier round —
//	           cost proportional to the unvisited out-degree, which on
//	           flooding rounds (dense frontiers, most of the product
//	           already discovered) is far smaller.
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
// admissible lower bounds). Bottom-up probes therefore read only what
// the last barrier installed (the at-barrier stamp of the id-list
// sweep, the frontier words of the packed one), never marks made in the
// same round: with one shard that keeps distances exact, with several
// it is also what keeps cross-shard reads race-free.

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
// α/β switch thresholds and the density-gate verdict. A driver resolves
// it ONCE at search start (sweepEnv.dirConfig), and it doubles as the
// accumulator for what the finished search reports: the round tallies
// for the telemetry sinks and the per-direction work and wall-time
// totals the α/β auto-tuner (tuner.go) learns from.
type dirConfig struct {
	mode  DirMode
	alpha int64
	beta  int64
	dense bool
	tuned bool // α/β came from the auto-tuner, not the defaults

	// Per-run observations. choose counts the round and credits the
	// work estimate of the direction it picks (frontier in-degree
	// top-down, unvisited out-degree bottom-up); sweepEnv.roundEnd adds
	// the measured wall time; sweepEnv.runDone hands the finished run to
	// the sinks.
	td, bu, sw       int64 // rounds per direction, direction switches
	tdWork, buWork   int64
	tdNanos, buNanos int64
}

// dirConfig resolves the direction snapshot of one sweep: mode,
// defaults and the density gate; then the thresholds the engine's
// auto-tuner (when wired) has learned for this (graph epoch, automaton
// size) bucket; then the test override hooks, which always win. The
// resolved thresholds and the shard count the sweep runs over are
// mirrored into the query trace when one is recording.
func (e *sweepEnv) dirConfig() dirConfig {
	dc := dirConfig{
		mode:  DirMode(dirMode.Load()),
		alpha: dirAlphaDefault,
		beta:  dirBetaDefault,
		dense: dirDense(e.vw.NumEdges(), e.n),
	}
	if e.tun != nil {
		if alpha, beta, ok := e.tun.thresholds(e.vw.Epoch(), e.m); ok {
			dc.alpha, dc.beta, dc.tuned = alpha, beta, true
		}
	}
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
	if e.tr != nil {
		e.tr.alpha, e.tr.beta, e.tr.tuned = dc.alpha, dc.beta, dc.tuned
		e.tr.shards = e.parts.K
	}
	return dc
}

// mayGoBottomUp reports whether choose can ever pick a bottom-up round
// under this snapshot.
func (dc *dirConfig) mayGoBottomUp() bool {
	return dc.mode == DirBottomUp || dc.mode == DirAuto && dc.dense
}

// choose decides the next round's direction from the current one and
// the incremental size estimates: frontEdges is the in-degree sum of
// the frontier, unvisEdges the out-degree sum of the unvisited ids,
// frontSize/totalSize the frontier and id-space cardinalities. It
// tallies the round (and a direction switch, when the choice differs
// from the current direction), and under DirAuto credits the chosen
// direction's work estimate, so a finished run reports (work, time)
// pairs per direction.
func (dc *dirConfig) choose(bottomUp bool, frontEdges, unvisEdges, frontSize, totalSize int64) bool {
	next := bottomUp
	switch dc.mode {
	case DirTopDown:
		next = false
	case DirBottomUp:
		next = true
	default:
		if !bottomUp {
			next = dc.dense && frontEdges*dc.alpha > unvisEdges
		} else {
			next = frontSize*dc.beta >= totalSize
		}
		if next {
			dc.buWork += unvisEdges
		} else {
			dc.tdWork += frontEdges
		}
	}
	if next != bottomUp {
		dc.sw++
	}
	if next {
		dc.bu++
	} else {
		dc.td++
	}
	return next
}
