package rspq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// This file implements the long-lived serving engine. A Solver answers
// one query at a time and a BatchSolver shares per-target tables within
// one batch; an Engine makes those tables survive ACROSS queries and
// batches. It owns a frozen view of one graph plus two cache tiers:
//
//   - a table cache holding the per-(language, target) pruning tables
//     of every tier — the baseline's product co-reachability bitset,
//     the walk-reduction tiers' backward-BFS distance + successor
//     arrays, and the summary solver's per-sequence position-NFA
//     co-reachability bitsets;
//   - a result cache for hot (language, x, y) answers.
//
// Every key carries the graph's mutation epoch (graph.Graph.Epoch), so
// a mutation invalidates all cached data automatically: the next query
// observes the bumped epoch, re-freezes the snapshot, and every lookup
// under the new epoch misses. Stale entries age out of the LRU on
// their own — no explicit purge calls anywhere.
//
// The evaluation itself — which table a tier needs, how a group of
// sources sharing a target is answered against it — is evaluator.go,
// shared with BatchSolver; this file is the lifecycle around it
// (snapshot pinning, compaction, stats, stage accounting of a single
// query).
//
// Engines are safe for concurrent use. Graph mutations must still be
// externally synchronized with in-flight queries (the graph's own
// contract); the epoch machinery guarantees that once a mutation
// happens-before a query, no table or result from the old generation
// can be served.

// Default cache budgets; override per tier via EngineConfig.
const (
	DefaultTableBytes  = 64 << 20 // 64 MiB of pruning tables
	DefaultResultBytes = 16 << 20 // 16 MiB of hot results
)

// DefaultCompactDelta is the default pending-delta watermark (adds +
// removes) above which NeedsCompaction asks for a background
// compaction; override via EngineConfig.CompactDelta.
const DefaultCompactDelta = 4096

// EngineConfig sizes an Engine's cache tiers and worker pool.
type EngineConfig struct {
	// TableBytes is the byte budget of the pruning-table cache. Zero
	// selects DefaultTableBytes; a negative value disables the tier.
	TableBytes int64
	// ResultBytes is the byte budget of the result cache. Zero selects
	// DefaultResultBytes; a negative value disables the tier.
	ResultBytes int64
	// Workers sizes the BatchSolve worker pool; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Shards configures the graph's shard count (at most
	// graph.MaxShards; larger values are capped): when > 0 the engine
	// calls g.SetShards(Shards) and every backward product
	// search runs as a bulk-synchronous frontier exchange over the
	// row-range shards (shardbfs.go), with workers capped at
	// min(Shards, GOMAXPROCS). 0 — the zero value — picks a shard count
	// adaptively from the graph's edge count and GOMAXPROCS
	// (adaptiveShards), unless the caller already configured one via
	// g.SetShards; small graphs stay unsharded, and so does any graph
	// when GOMAXPROCS is 1 (an explicit Shards > 0 still shards there).
	// A negative value opts
	// out of the adaptive default and leaves the graph's configuration
	// untouched. EngineStats.ShardsAdaptive reports whether the running
	// shard count was chosen adaptively.
	Shards int
	// CompactDelta is the pending-delta watermark (edges added plus
	// edges tombstoned since the last freeze) above which
	// NeedsCompaction reports true, asking the serving layer to schedule
	// a background Compact. Zero selects DefaultCompactDelta; a negative
	// value disables the watermark (NeedsCompaction always false).
	CompactDelta int
	// Metrics, when non-nil, is the registry the engine registers its
	// series on (so a serving layer can expose engine and server
	// metrics from one endpoint); nil makes the engine create its own,
	// reachable via Engine.Metrics. A registry should back at most one
	// engine — a second engine would share and double-count the series.
	Metrics *metrics.Registry
	// Checkpoint, when non-nil, runs at the end of every Compact that
	// merged delta, with the merged CSR installed and under the same
	// external synchronization as the compaction itself. The serving
	// layer points it at persist.DB.Checkpoint so every background
	// compaction also publishes a durable snapshot and truncates the
	// write-ahead log.
	Checkpoint func()
}

// Adaptive shard sizing (EngineConfig.Shards == 0): graphs below
// adaptiveMinEdges stay unsharded (the exchange's barriers would cost
// more than the sweep), larger ones get one shard per
// adaptiveEdgesPerShard edges — at least one per processor so the
// exchange can use every core, capped at graph.MaxShards like any
// other shard count. One processor has no second core to use: there the
// exchange is the sequential sweep plus outbox traffic (measured on
// serve-churn: read_p50_us 201–219 with K=5, 151–158 without), so the
// graph stays unsharded whatever its size.
const (
	adaptiveMinEdges      = 1 << 17
	adaptiveEdgesPerShard = 1 << 16
)

// adaptiveShards picks the default shard count for a graph with the
// given edge count on procs processors; 0 means stay unsharded.
func adaptiveShards(edges, procs int) int {
	if edges < adaptiveMinEdges || procs < 2 {
		return 0
	}
	return min(max(edges/adaptiveEdgesPerShard, procs), graph.MaxShards)
}

// EngineStats is a point-in-time snapshot of an Engine's counters; the
// cache stats make hits, misses and evictions of both tiers observable,
// and the freeze counters split the graph's CSR builds into full
// rebuilds versus incremental delta merges — on a streaming workload
// IncrementalFreezes should dominate (see Engine.Stats).
type EngineStats struct {
	Epoch              uint64 `json:"epoch"`
	Algorithm          string `json:"algorithm"`
	Queries            int64  `json:"queries"`
	Batches            int64  `json:"batches"`
	BatchPairs         int64  `json:"batch_pairs"`
	SnapshotRebuilds   int64  `json:"snapshot_rebuilds"`
	FullFreezes        uint64 `json:"full_freezes"`
	IncrementalFreezes uint64 `json:"incremental_freezes"`
	// Shards is the shard count (0 = unsharded), ShardsAdaptive
	// whether the engine picked it (EngineConfig.Shards == 0) rather
	// than the caller, and ShardEdges the per-shard edge counts of the
	// current frozen base (edges by owning source row). ExchangeRounds
	// is the cumulative round count of the backward sweeps (every one
	// a frontier exchange, at any K). BitParallelHits counts backward
	// sweeps served by the packed ≤64-state driver (bitbfs.go),
	// StoppedSweeps those that stopped once every source of their group
	// was answered — each a miss that left no table behind (goalProbe,
	// rspq.go).
	Shards          int   `json:"shards,omitempty"`
	ShardsAdaptive  bool  `json:"shards_adaptive,omitempty"`
	ShardEdges      []int `json:"shard_edges,omitempty"`
	ExchangeRounds  int64 `json:"exchange_rounds,omitempty"`
	BitParallelHits int64 `json:"bit_parallel_hits,omitempty"`
	StoppedSweeps   int64 `json:"stopped_sweeps,omitempty"`
	// Deprecated: always 0; every round is top-down.
	BottomUpRounds int64 `json:"bottom_up_rounds,omitempty"`
	// Deprecated: always 0; there are no direction thresholds to tune.
	TunerAdjustments int64 `json:"tuner_adjustments,omitempty"`
	// MVCC-lite visibility: the graph's pending mutation delta (edges
	// added / tombstoned since the last freeze), how many queries were
	// served through an overlay view versus a pass-through snapshot,
	// and how many background compactions (Engine.Compact) have merged
	// the delta away. Overlay reads with no freezes in between are the
	// no-freeze hot path working as intended.
	PendingAdds      int   `json:"pending_adds"`
	PendingRemoves   int   `json:"pending_removes"`
	OverlayReads     int64 `json:"overlay_reads"`
	PassThroughReads int64 `json:"pass_through_reads"`
	Compactions      int64 `json:"compactions"`
	// Compaction and freeze cost visibility: cumulative and most-recent
	// compaction wall time, how many delta edges compactions merged
	// away, the configured watermark (-1 = disabled) with the remaining
	// headroom before it (-1 when disabled, 0 when overdue), and the
	// graph-side CSR build timings (all builds, not only compactions).
	CompactionSeconds     float64     `json:"compaction_seconds"`
	LastCompactionSeconds float64     `json:"last_compaction_seconds"`
	CompactionMergedEdges int64       `json:"compaction_merged_edges"`
	CompactWatermark      int         `json:"compact_watermark"`
	CompactHeadroom       int         `json:"compact_headroom"`
	FreezeBuildSeconds    float64     `json:"freeze_build_seconds"`
	LastFreezeSeconds     float64     `json:"last_freeze_seconds"`
	Tables                cache.Stats `json:"tables"`
	Results               cache.Stats `json:"results"`
}

// Engine is a long-lived serving engine for one (language, graph)
// pair: it answers Solve / Exists / BatchSolve / BatchSolveExists
// against a frozen snapshot of the graph, keeping the per-target
// pruning tables of all three algorithm tiers and hot query results in
// epoch-keyed LRU caches so they survive across queries and batches.
// Build one with NewEngine and share it between goroutines.
type Engine struct {
	// evaluator is the table-sharing evaluator (evaluator.go) with both
	// cache tiers attached: tables and results are nil when their tier
	// is disabled. Its met holds every engine counter/histogram as
	// pre-registered series on one metrics.Registry (enginemetrics.go);
	// EngineStats and the Prometheus exposition both read it, so /stats
	// and /metrics can never disagree.
	evaluator
	g *graph.Graph

	mu   sync.Mutex // serializes snapshot rebuilds
	snap atomic.Pointer[pinned]

	// compactDelta is the NeedsCompaction watermark resolved from
	// EngineConfig.CompactDelta (-1 = disabled).
	compactDelta int

	// adaptive records that NewEngine chose the shard count itself
	// (EngineConfig.Shards == 0 on an unconfigured graph); set once at
	// construction, read by Stats.
	adaptive bool

	// checkpoint is EngineConfig.Checkpoint (nil = no durability).
	checkpoint func()
}

// NewEngine builds a serving engine for s's language on g, freezing
// the graph-side indexes eagerly (like Solver.Warm). The zero
// EngineConfig selects the default cache budgets and a GOMAXPROCS
// worker pool.
func NewEngine(s *Solver, g *graph.Graph, cfg EngineConfig) *Engine {
	e := &Engine{evaluator: evaluator{s: s}, g: g}
	if cfg.Shards > 0 {
		g.SetShards(cfg.Shards)
	} else if cfg.Shards == 0 && g.ShardCount() == 0 {
		if k := adaptiveShards(g.NumEdges(), runtime.GOMAXPROCS(0)); k > 1 {
			g.SetShards(k)
			e.adaptive = true
		}
	}
	if cfg.TableBytes >= 0 {
		tb := cfg.TableBytes
		if tb == 0 {
			tb = DefaultTableBytes
		}
		e.tables = cache.New[tableKey, any](cache.Config{MaxBytes: tb})
	}
	if cfg.ResultBytes >= 0 {
		rb := cfg.ResultBytes
		if rb == 0 {
			rb = DefaultResultBytes
		}
		e.results = cache.New[resultKey, Result](cache.Config{MaxBytes: rb})
	}
	e.setWorkers(cfg.Workers)
	switch {
	case cfg.CompactDelta > 0:
		e.compactDelta = cfg.CompactDelta
	case cfg.CompactDelta == 0:
		e.compactDelta = DefaultCompactDelta
	default:
		e.compactDelta = -1
	}
	e.checkpoint = cfg.Checkpoint
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e.met = newEngineMetrics(reg)
	e.met.registerSourced(e)
	e.counts = &e.met.kernel
	e.snapshot()
	return e
}

// Metrics returns the registry carrying every engine series (the
// backing store of both Stats and the Prometheus exposition).
func (e *Engine) Metrics() *metrics.Registry { return e.met.reg }

// SetWorkers overrides the batch worker-pool size; n < 1 restores the
// default (GOMAXPROCS). It returns the receiver for chaining.
func (e *Engine) SetWorkers(n int) *Engine {
	e.setWorkers(n)
	return e
}

// Solver returns the compiled language the engine serves.
func (e *Engine) Solver() *Solver { return e.s }

// ShardsAdaptive reports whether the engine picked the snapshot
// partition size itself (EngineConfig.Shards == 0 on an unconfigured
// graph) rather than serving a caller-chosen one.
func (e *Engine) ShardsAdaptive() bool { return e.adaptive }

// snapshot returns the current consistent pinned view, rebuilding it
// when the graph's epoch has moved past the snapshot's. Cached tables
// and results need no purging — their keys carry the old epoch and
// simply stop matching.
//
// This is the no-freeze read path of streaming workloads: the rebuild
// goes through Solver.pin and graph.SnapshotView, which pins a small
// pending delta as a sorted read overlay on the last frozen base
// (graph.View) instead of refreezing — and asks for the graph's
// acyclicity verdict only when the language dispatches on it. Mutations therefore cost O(1) at mutation time and
// roughly O(delta) at the next snapshot — never a stop-the-world
// re-sort — and in-flight queries are untouched: they hold their own
// snap, which stays valid because views are immutable. Merging the
// delta back into a flat CSR is deferred to Compact (a background
// concern, see NeedsCompaction) or to a natural freeze when the delta
// outgrows the overlay regime. EngineStats.OverlayReads versus
// .PassThroughReads shows which regime queries are actually in.
func (e *Engine) snapshot() *pinned {
	if s := e.snap.Load(); s != nil && s.epoch == e.g.Epoch() {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.snap.Load(); s != nil && s.epoch == e.g.Epoch() {
		return s
	}
	s := e.s.pin(e.g)
	e.snap.Store(s)
	e.met.rebuilds.Inc()
	return s
}

// Compact merges the graph's pending mutation delta into a flat CSR and
// re-pins the engine's snapshot over the merged base, off the query
// path. The epoch does not move — an overlay view and the merged CSR
// present identical adjacency, so cached tables and results keyed by
// the current epoch stay valid and in-flight queries keep their pinned
// (now superseded, still immutable) view. It reports whether any
// compaction work was done.
//
// Like mutations, Compact must be externally synchronized with writers:
// callers serialize it against AddEdge/RemoveEdge (rspqd runs it from
// the compaction goroutine under the same write lock as mutations).
// Concurrent queries need no synchronization.
func (e *Engine) Compact() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	adds, removes := e.g.PendingDelta()
	if adds+removes == 0 {
		return false
	}
	t0 := time.Now()
	e.g.Freeze() // merge the delta into the base (incremental when it qualifies)
	e.snap.Store(e.s.pin(e.g))
	el := time.Since(t0)
	e.met.compactions.Inc()
	e.met.compactSeconds.ObserveDuration(el)
	e.met.lastCompaction.Set(el.Seconds())
	e.met.compactMerged.Add(int64(adds + removes))
	if e.checkpoint != nil {
		// The merged CSR is the natural checkpoint image: publish it
		// while still under the caller's write exclusion, so the
		// snapshot and the WAL rotation see a quiesced graph.
		e.checkpoint()
	}
	return true
}

// compactHeadroom is the remaining pending-delta budget before the
// compaction watermark (floored at 0), or -1 when the watermark is
// disabled.
func (e *Engine) compactHeadroom() int {
	if e.compactDelta < 0 {
		return -1
	}
	adds, removes := e.g.PendingDelta()
	if h := e.compactDelta - (adds + removes); h > 0 {
		return h
	}
	return 0
}

// NeedsCompaction reports whether the pending delta has crossed the
// configured watermark (EngineConfig.CompactDelta), i.e. whether a
// background Compact is worth scheduling. Reads the live delta size, so
// call it under the same reader-side synchronization as queries.
func (e *Engine) NeedsCompaction() bool {
	if e.compactDelta < 0 {
		return false
	}
	adds, removes := e.g.PendingDelta()
	return adds+removes > e.compactDelta
}

// Stats snapshots the engine's counters, including hit/miss/eviction
// numbers for both cache tiers. Every value is read from the same
// registry series the Prometheus exposition serves.
func (e *Engine) Stats() EngineStats {
	snap := e.snap.Load()
	m := e.met
	var queries int64
	for a := 0; a < algoCount; a++ {
		queries += m.queries[a].Value()
	}
	st := EngineStats{
		Queries:          queries,
		Batches:          m.batches.Value(),
		BatchPairs:       m.batchPairs.Value(),
		SnapshotRebuilds: m.rebuilds.Value(),
	}
	st.FullFreezes, st.IncrementalFreezes = e.g.FreezeStats()
	st.PendingAdds, st.PendingRemoves = e.g.PendingDelta()
	st.OverlayReads = m.overlayReads.Value()
	st.PassThroughReads = m.passThroughReads.Value()
	st.Compactions = m.compactions.Value()
	st.CompactionSeconds = m.compactSeconds.Sum()
	st.LastCompactionSeconds = m.lastCompaction.Value()
	st.CompactionMergedEdges = m.compactMerged.Value()
	st.CompactWatermark = e.compactDelta
	st.CompactHeadroom = e.compactHeadroom()
	freezeTotal, freezeLast := e.g.FreezeTimings()
	st.FreezeBuildSeconds = float64(freezeTotal) / 1e9
	st.LastFreezeSeconds = float64(freezeLast) / 1e9
	st.ExchangeRounds = m.kernel.rounds.Value()
	st.BitParallelHits = m.kernel.bitHits.Value()
	st.StoppedSweeps = m.kernel.stopped.Value()
	if snap != nil {
		st.Epoch = snap.epoch
		st.Algorithm = snap.algo.String()
		if k := snap.vw.Shards(); k > 0 {
			st.Shards = k
			st.ShardsAdaptive = e.adaptive
			st.ShardEdges = partition(snap.vw).baseEdges(snap.vw.Base())
		}
	}
	if e.tables != nil {
		st.Tables = e.tables.Stats()
	}
	if e.results != nil {
		st.Results = e.results.Stats()
	}
	return st
}

// Solve answers RSPQ(L) for one (x, y) pair. The returned Result may
// be shared with other callers via the result cache, so its Path must
// be treated as immutable.
func (e *Engine) Solve(x, y int) Result {
	return e.solve(x, y, false)
}

// Exists answers only the existence bit, skipping witness
// materialization where the tier allows it (O(1) per call on the
// walk-reduction tiers once the target's table is cached).
func (e *Engine) Exists(x, y int) bool {
	return e.solve(x, y, true).Found
}

// SolveTraced answers like Solve and additionally returns the query's
// per-stage, per-round breakdown — which tier ran, whether the
// snapshot was an overlay, the result/table cache verdicts, the four
// stage timings, and every kernel round with its frontier size and wall
// time. Tracing allocates (the recording itself), so it is for
// slow-query debugging, not the steady-state hot path; the returned
// trace is never nil.
func (e *Engine) SolveTraced(x, y int) (Result, *QueryTrace) {
	return e.run(x, y, false, true)
}

func (e *Engine) solve(x, y int, existsOnly bool) Result {
	res, _ := e.run(x, y, existsOnly, false)
	return res
}

// run is the shared single-query path: stage-timed, per-tier counted,
// optionally traced. The stage boundaries: "pin" covers snapshot
// validation + re-pin, "cache" the result-cache lookup, "table" the
// pruning-table cache traffic (lookup, export, insert), "kernel" the
// backward product BFS / summary sweep / finite-tier search itself.
func (e *Engine) run(x, y int, existsOnly, traced bool) (Result, *QueryTrace) {
	m := e.met
	t0 := time.Now()
	snap := e.snapshot()
	pin := time.Since(t0)
	m.queries[snap.algo].Inc()
	m.stagePin.ObserveDuration(pin)
	overlay := snap.vw.Overlay()
	if overlay {
		m.overlayReads.Inc()
	} else {
		m.passThroughReads.Inc()
	}
	var st *solveTiming
	if traced {
		st = &solveTiming{kt: &kernelTrace{}}
	}
	finish := func(res Result, cacheNs int64, cacheHit bool) (Result, *QueryTrace) {
		total := time.Since(t0)
		m.latency[snap.algo].ObserveDuration(total)
		if !traced {
			return res, nil
		}
		tr := &QueryTrace{
			X:              x,
			Y:              y,
			Tier:           snap.algo.String(),
			Epoch:          snap.epoch,
			Overlay:        overlay,
			ResultCacheHit: cacheHit,
			TotalNanos:     total.Nanoseconds(),
			Stages: []StageTiming{
				{Stage: "pin", Nanos: pin.Nanoseconds()},
				{Stage: "cache", Nanos: cacheNs},
				{Stage: "table", Nanos: st.tableNs},
				{Stage: "kernel", Nanos: st.kernelNs},
			},
		}
		tr.PendingAdds, tr.PendingRemoves = snap.vw.PendingDelta()
		tr.TableCacheHit = st.tableHit
		tr.TableStates = st.tableStates
		tr.TableBytes = st.tableBytes
		tr.BitParallel = st.kt.bitParallel
		tr.Shards = st.kt.shards
		tr.StoppedAt = st.kt.stoppedAt
		tr.Rounds = st.kt.rounds
		return res, tr
	}
	if !validPair(snap.vw.NumVertices(), x, y) {
		return finish(Result{}, 0, false)
	}
	c0 := time.Now()
	res, ok := e.cachedResult(snap.epoch, x, y, existsOnly)
	cacheDur := time.Since(c0)
	m.stageCache.ObserveDuration(cacheDur)
	if ok {
		return finish(res, cacheDur.Nanoseconds(), true)
	}
	// A single query is a target group of one, built on the stack.
	var (
		xs    = [1]int{x}
		idx   [1]int
		out   [1]Result
		found [1]bool
	)
	grp := targetGroup{y: y, xs: xs[:], idx: idx[:]}
	w := answers{out: out[:]}
	if existsOnly {
		w = answers{found: found[:]}
	}
	a := getArena()
	e.solveGroup(snap, a, &grp, w, st)
	a.release()
	return finish(w.get(0), cacheDur.Nanoseconds(), false)
}

// BatchSolve answers many (x, y) pairs: out[i] answers pairs[i],
// out-of-range ids yield Result{Found: false}. Pairs are first checked
// against the result cache; the remainder are grouped by target, each
// group's pruning table comes from the table cache (computed once on
// miss), and groups fan out over the worker pool. Cached Results are
// shared — treat their Paths as immutable.
func (e *Engine) BatchSolve(pairs []Pair) []Result {
	out := make([]Result, len(pairs))
	e.batch(pairs, answers{out: out})
	return out
}

// BatchSolveExists answers only the existence bits, combining the
// batch grouping with the existence-only fast path (O(1) per source on
// the walk-reduction tiers once the group's table is available).
func (e *Engine) BatchSolveExists(pairs []Pair) []bool {
	found := make([]bool, len(pairs))
	e.batch(pairs, answers{found: found})
	return found
}

func (e *Engine) batch(pairs []Pair, w answers) {
	e.met.batches.Inc()
	e.met.batchPairs.Add(int64(len(pairs)))
	t0 := time.Now()
	snap := e.snapshot()
	e.met.stagePin.ObserveDuration(time.Since(t0))
	if snap.vw.Overlay() {
		e.met.overlayReads.Inc()
	} else {
		e.met.passThroughReads.Inc()
	}
	e.solvePairs(snap, pairs, w)
}
