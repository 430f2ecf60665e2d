package rspq

import (
	"time"

	"repro/internal/metrics"
)

// This file is the per-query telemetry layer. Two sinks ride the same
// kernel hooks:
//
//   - exchCounters: pre-registered metrics handles (counters for
//     rounds / sweeps / stopped sweeps) that an Engine wires into every
//     backward sweep it runs (sinks, sweep.go). Updates are atomic adds —
//     no locks, no allocation, no clock read — so the instrumented
//     kernels keep their allocation contracts.
//   - kernelTrace: an opt-in per-query recording (round-by-round
//     frontier size and wall time) that Engine.SolveTraced assembles
//     into the public QueryTrace. It allocates, so it is
//     nil on every path except an explicit trace request.
//
// Both sinks may be nil; package-level entry points (SolveExists,
// ExistsWalk, BatchSolver) run with neither and pay only a pair of
// nil checks per round. Only a trace reads the clock per round: kernel
// time per query is the "kernel" stage's, timed once around the sweep.

// StageTiming is one engine stage of a traced query: stage is one of
// "pin" (snapshot pin + validation), "cache" (result-cache lookup),
// "table" (pruning-table acquisition outside the kernel), "kernel"
// (the backward product BFS / summary sweep itself).
type StageTiming struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// RoundTrace is one kernel round of a traced query: the frontier size
// entering the round and the round's wall time.
type RoundTrace struct {
	Frontier int   `json:"frontier"`
	Nanos    int64 `json:"nanos"`
}

// QueryTrace is the per-stage, per-round breakdown of one traced query
// (Engine.SolveTraced, or ?trace=1 on rspqd's /query). Rounds is empty
// when the query never ran a kernel (result-cache hit, invalid pair,
// or a tier that answers without a product sweep).
type QueryTrace struct {
	X       int    `json:"x"`
	Y       int    `json:"y"`
	Tier    string `json:"tier"`
	Epoch   uint64 `json:"epoch"`
	Overlay bool   `json:"overlay"`
	// PendingAdds/PendingRemoves are the delta the pinned view overlays
	// on its base (graph.View.PendingDelta; both 0 on a pass-through
	// view). Next to the "pin" stage they tell whether the first read of
	// an epoch was slow in the pin — which costs the write's batch and
	// how full the overlay already is — or in the sweep.
	PendingAdds    int  `json:"pending_adds,omitempty"`
	PendingRemoves int  `json:"pending_removes,omitempty"`
	ResultCacheHit bool `json:"result_cache_hit"`
	TableCacheHit  bool `json:"table_cache_hit"`
	// TableStates/TableBytes describe the goal table (walk-reduction
	// tiers) the query built or hit: the product states its backward
	// sweep reached and the bytes the table cache retains for it. They
	// tell a miss that swept 300 states from one that flooded the graph;
	// both are 0 when no goal table was involved.
	TableStates int   `json:"table_states,omitempty"`
	TableBytes  int64 `json:"table_bytes,omitempty"`
	// StoppedAt is the level at which the query's sweep answered its last
	// source and stopped, which is that source's exact distance: the
	// sweep cut the round discovering level StoppedAt-1 at the admission
	// that answered it, or — when it was answered before a round, as a
	// source one step from the goal is — skipped the round that would
	// have discovered level StoppedAt (a source that is the target, at
	// distance 0, is answered at level 1 with no round run). 0 (omitted)
	// when the sweep ran to the end; only such a sweep leaves a goal
	// table for TableStates/TableBytes to describe.
	StoppedAt int `json:"stopped_at,omitempty"`
	// StatesReached counts the states the query's backward sweeps turned
	// on, a stopped sweep's included: product states on the subword, DAG
	// and baseline tiers, position-NFA states on the summary tier. It is
	// what a miss cost, set whether or not a goal table was built; 0 when
	// no sweep ran (a cache hit, or a tier that answers without one).
	StatesReached int `json:"states_reached,omitempty"`
	// SearchNodes counts the nodes the query's search expanded: the
	// finite tier's bounded deepening from x, and the fallback searches
	// run after the shortest walk left the answer open — the baseline's
	// DFS calls and the summary walker's steps. 0 (omitted) when the walk
	// answered, and on the tiers that never search.
	SearchNodes int           `json:"search_nodes,omitempty"`
	Stages      []StageTiming `json:"stages"`
	Rounds      []RoundTrace  `json:"rounds"`
	TotalNanos  int64         `json:"total_nanos"`
}

// kernelTrace is the kernel-side accumulator behind a QueryTrace.
type kernelTrace struct {
	rounds        []RoundTrace
	stoppedAt     int
	statesReached int
	search        BaselineStats // nodes the fallback searches expanded
}

// exchCounters bundles the pre-registered kernel metrics an Engine
// wires into every search: the round counter, the sweep counter and the
// stopped-sweep counter. A nil
// *exchCounters (the package-level query paths) disables all of it.
// When non-nil, every field is set — the Engine registers them
// together.
type exchCounters struct {
	rounds  *metrics.Counter
	sweeps  *metrics.Counter
	stopped *metrics.Counter
}

// roundStart begins timing one sweep round for the trace; it returns
// the zero time (without reading the clock) when there is none.
func (e *sweepEnv) roundStart() time.Time {
	if e.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// roundEnd finishes one sweep round: when tracing, it records a
// RoundTrace with the round's wall time and the frontier size the round
// started from.
func (e *sweepEnv) roundEnd(t0 time.Time, frontier int) {
	if e.tr != nil {
		e.tr.rounds = append(e.tr.rounds, RoundTrace{Frontier: frontier, Nanos: time.Since(t0).Nanoseconds()})
	}
}

// runDone credits one finished sweep's round count to the counters.
func (e *sweepEnv) runDone(rounds int32) {
	if e.counts != nil && rounds > 0 {
		e.counts.rounds.Add(int64(rounds))
	}
}

// sweepStarted counts one backward sweep.
func (e *sweepEnv) sweepStarted() {
	if e.counts != nil {
		e.counts.sweeps.Inc()
	}
}

// sweepStopped records one sweep that stopped before the round
// discovering level d, every source of its group answered, in both
// telemetry sinks.
func (e *sweepEnv) sweepStopped(d int32) {
	if e.counts != nil {
		e.counts.stopped.Inc()
	}
	if e.tr != nil {
		e.tr.stoppedAt = int(d)
	}
}
