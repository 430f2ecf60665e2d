package rspq

import (
	"time"

	"repro/internal/metrics"
)

// This file is the per-query telemetry layer. Two sinks ride the same
// kernel hooks:
//
//   - exchCounters: pre-registered metrics handles (counters for
//     rounds / sweeps / stopped sweeps, a histogram for per-round wall
//     time) that an Engine wires into every backward sweep it runs
//     (sinks, sweep.go). Updates are
//     atomic adds — no locks, no allocation — so the instrumented
//     kernels keep their allocation contracts.
//   - kernelTrace: an opt-in per-query recording (round-by-round
//     frontier size and wall time) that Engine.SolveTraced assembles
//     into the public QueryTrace. It allocates, so it is
//     nil on every path except an explicit trace request.
//
// Both sinks may be nil; package-level entry points (SolveExists,
// ExistsWalk, BatchSolver) run with neither and pay only a pair of
// nil checks per round.

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
	// source and stopped: the level the skipped round would have
	// discovered, which is the source's exact distance (a source that is
	// the target, at distance 0, is answered at level 1 with no round
	// run). 0 (omitted) when the sweep ran to the end; only such a sweep
	// leaves a goal table for TableStates/TableBytes to describe.
	StoppedAt  int           `json:"stopped_at,omitempty"`
	Stages     []StageTiming `json:"stages"`
	Rounds     []RoundTrace  `json:"rounds"`
	TotalNanos int64         `json:"total_nanos"`
}

// kernelTrace is the kernel-side accumulator behind a QueryTrace.
type kernelTrace struct {
	rounds    []RoundTrace
	stoppedAt int
}

// exchCounters bundles the pre-registered kernel metrics an Engine
// wires into every search: the round counter and round-time histogram,
// the sweep counter and the stopped-sweep counter. A nil
// *exchCounters (the package-level query paths) disables all of it.
// When non-nil, every field is set — the Engine registers them
// together.
type exchCounters struct {
	rounds    *metrics.Counter
	sweeps    *metrics.Counter
	stopped   *metrics.Counter
	roundSecs *metrics.Histogram
}

// roundStart begins timing one sweep round; it returns the zero time
// (without reading the clock) when nothing listens.
func (e *sweepEnv) roundStart() time.Time {
	if e.counts == nil && e.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// roundEnd finishes one sweep round: with a sink listening the wall
// time goes into the round histogram and, when tracing, a RoundTrace
// with the frontier size the round started from.
func (e *sweepEnv) roundEnd(t0 time.Time, frontier int) {
	if e.counts == nil && e.tr == nil {
		return
	}
	el := time.Since(t0)
	if e.counts != nil {
		e.counts.roundSecs.ObserveDuration(el)
	}
	if e.tr != nil {
		e.tr.rounds = append(e.tr.rounds, RoundTrace{Frontier: frontier, Nanos: el.Nanoseconds()})
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
