package rspq

import (
	"repro/internal/cache"
	"repro/internal/metrics"
)

// This file defines the Engine's metrics surface: every counter the
// Engine used to keep as a private atomic now lives as a pre-registered
// series in a metrics.Registry, so EngineStats (the /stats JSON) and
// the Prometheus exposition (/metrics) are two read paths over the SAME
// values and can never disagree. Recording stays lock-free: handles are
// resolved once at construction, hot paths do atomic adds only.
//
// Metric name catalog (see docs/ARCHITECTURE.md §8 for semantics):
//
//	rspq_queries_total{tier}                 queries answered, labelled with the engine's tier
//	rspq_query_seconds{tier}                 end-to-end query latency
//	rspq_stage_seconds{stage}                per-stage latency: pin|cache|table|kernel
//	rspq_batches_total / rspq_batch_pairs_total
//	rspq_snapshot_rebuilds_total             engine snapshot re-pins
//	rspq_reads_total{view}                   overlay vs pass_through serves
//	rspq_kernel_rounds_total                 backward-sweep BFS rounds
//	rspq_bit_parallel_hits_total             backward sweeps, every tier
//	rspq_sweeps_stopped_total                sweeps stopped with every source answered
//	rspq_compactions_total                   background delta merges
//	rspq_compaction_seconds                  compaction wall time (histogram)
//	rspq_last_compaction_seconds             most recent compaction (gauge)
//	rspq_compaction_merged_edges_total       delta edges merged away
//	rspq_epoch                               graph mutation epoch
//	rspq_freezes_total{kind}                 CSR builds, full|incremental
//	rspq_freeze_build_seconds_total          cumulative CSR build wall time
//	rspq_last_freeze_seconds                 most recent CSR build
//	rspq_freeze_delta_edges_total            delta absorbed by CSR builds
//	rspq_pending_delta{kind}                 live delta size, adds|removes
//	rspq_compact_watermark / rspq_compact_headroom
//	rspq_cache_{hits,misses,puts,evictions}_total{cache}  tables|results
//	rspq_cache_{bytes,entries}{cache}

// engineMetrics bundles the Engine's pre-registered series handles.
type engineMetrics struct {
	reg *metrics.Registry

	queries *metrics.Counter
	latency *metrics.Histogram

	stagePin    *metrics.Histogram
	stageCache  *metrics.Histogram
	stageTable  *metrics.Histogram
	stageKernel *metrics.Histogram

	batches          *metrics.Counter
	batchPairs       *metrics.Counter
	rebuilds         *metrics.Counter
	overlayReads     *metrics.Counter
	passThroughReads *metrics.Counter

	compactions    *metrics.Counter
	compactSeconds *metrics.Histogram
	lastCompaction *metrics.Gauge
	compactMerged  *metrics.Counter

	// kernel is wired into every product search and summary sweep the
	// engine runs (trace.go).
	kernel exchCounters
}

// newEngineMetrics registers the engine-owned series on reg, the query
// count and latency once, labelled with the one tier the engine serves.
// One registry should back one engine: a second engine on the same
// registry would share (and double-count into) these series.
func newEngineMetrics(reg *metrics.Registry, tier Algorithm) *engineMetrics {
	m := &engineMetrics{reg: reg}
	m.queries = reg.Counter("rspq_queries_total",
		"Queries answered, labelled with the engine's trichotomy tier.", "tier", tier.String())
	m.latency = reg.Histogram("rspq_query_seconds",
		"End-to-end query latency in seconds, labelled with the engine's trichotomy tier.", nil, "tier", tier.String())
	stage := func(s string) *metrics.Histogram {
		return reg.Histogram("rspq_stage_seconds",
			"Per-query stage latency in seconds: pin (snapshot pin), cache (result-cache lookup), table (pruning-table acquisition outside the kernel), kernel (backward product BFS / summary sweep).",
			nil, "stage", s)
	}
	m.stagePin = stage("pin")
	m.stageCache = stage("cache")
	m.stageTable = stage("table")
	m.stageKernel = stage("kernel")

	m.batches = reg.Counter("rspq_batches_total", "Batch calls answered.")
	m.batchPairs = reg.Counter("rspq_batch_pairs_total", "Query pairs answered across all batches.")
	m.rebuilds = reg.Counter("rspq_snapshot_rebuilds_total", "Engine snapshot re-pins after an epoch move.")
	m.overlayReads = reg.Counter("rspq_reads_total",
		"Queries and batches served, by snapshot view kind.", "view", "overlay")
	m.passThroughReads = reg.Counter("rspq_reads_total",
		"Queries and batches served, by snapshot view kind.", "view", "pass_through")

	m.compactions = reg.Counter("rspq_compactions_total", "Background delta compactions (Engine.Compact).")
	m.compactSeconds = reg.Histogram("rspq_compaction_seconds", "Compaction wall time in seconds.", nil)
	m.lastCompaction = reg.Gauge("rspq_last_compaction_seconds", "Wall time of the most recent compaction in seconds.")
	m.compactMerged = reg.Counter("rspq_compaction_merged_edges_total",
		"Pending delta edges (adds plus tombstones) merged away by compactions.")

	m.kernel = newKernelCounters(reg)
	return m
}

// newKernelCounters registers (or re-resolves) the kernel telemetry
// series on reg. Registration is get-or-create, so an Engine and a
// standalone BatchSolver pointed at the same registry share one set of
// series.
func newKernelCounters(reg *metrics.Registry) exchCounters {
	return exchCounters{
		rounds: reg.Counter("rspq_kernel_rounds_total", "Kernel BFS rounds of the backward sweeps."),
		sweeps: reg.Counter("rspq_bit_parallel_hits_total",
			"Backward sweeps run, each over packed words (the name predates the one sweep driver)."),
		stopped: reg.Counter("rspq_sweeps_stopped_total",
			"Backward sweeps that stopped once every source of their target group was answered, leaving no table."),
	}
}

// registerSourced adds the series whose values live outside the
// registry — graph freeze/delta state and cache tier stats — as Func
// series reading the same sources EngineStats reads, evaluated at
// scrape time.
func (m *engineMetrics) registerSourced(e *Engine) {
	g := e.g
	reg := m.reg
	reg.GaugeFunc("rspq_epoch", "Graph mutation epoch.",
		func() float64 { return float64(g.Epoch()) })
	reg.CounterFunc("rspq_freezes_total", "CSR snapshot builds, by kind.",
		func() float64 { full, _ := g.FreezeStats(); return float64(full) }, "kind", "full")
	reg.CounterFunc("rspq_freezes_total", "CSR snapshot builds, by kind.",
		func() float64 { _, inc := g.FreezeStats(); return float64(inc) }, "kind", "incremental")
	reg.CounterFunc("rspq_freeze_build_seconds_total", "Cumulative CSR build wall time in seconds.",
		func() float64 { total, _ := g.FreezeTimings(); return float64(total) / 1e9 })
	reg.GaugeFunc("rspq_last_freeze_seconds", "Wall time of the most recent CSR build in seconds.",
		func() float64 { _, last := g.FreezeTimings(); return float64(last) / 1e9 })
	reg.CounterFunc("rspq_freeze_delta_edges_total",
		"Buffered mutations (adds plus tombstones) absorbed by CSR builds.",
		func() float64 { total, _ := g.FreezeDeltaEdges(); return float64(total) })
	reg.GaugeFunc("rspq_pending_delta", "Pending mutation delta, by kind.",
		func() float64 { adds, _ := g.PendingDelta(); return float64(adds) }, "kind", "adds")
	reg.GaugeFunc("rspq_pending_delta", "Pending mutation delta, by kind.",
		func() float64 { _, removes := g.PendingDelta(); return float64(removes) }, "kind", "removes")
	reg.GaugeFunc("rspq_compact_watermark",
		"Pending-delta watermark above which compaction is requested; -1 when disabled.",
		func() float64 { return float64(e.compactDelta) })
	reg.GaugeFunc("rspq_compact_headroom",
		"Remaining pending-delta budget before the compaction watermark; -1 when the watermark is disabled.",
		func() float64 { return float64(e.compactHeadroom()) })

	cacheFuncs := func(tier string, stats func() cache.Stats) {
		counter := func(name, help string, get func(cache.Stats) float64) {
			reg.CounterFunc(name, help, func() float64 { return get(stats()) }, "cache", tier)
		}
		gauge := func(name, help string, get func(cache.Stats) float64) {
			reg.GaugeFunc(name, help, func() float64 { return get(stats()) }, "cache", tier)
		}
		counter("rspq_cache_hits_total", "Cache hits, by tier.",
			func(s cache.Stats) float64 { return float64(s.Hits) })
		counter("rspq_cache_misses_total", "Cache misses, by tier.",
			func(s cache.Stats) float64 { return float64(s.Misses) })
		counter("rspq_cache_puts_total", "Cache insertions, by tier.",
			func(s cache.Stats) float64 { return float64(s.Puts) })
		counter("rspq_cache_evictions_total", "Cache evictions, by tier.",
			func(s cache.Stats) float64 { return float64(s.Evictions) })
		gauge("rspq_cache_bytes", "Resident cache bytes, by tier.",
			func(s cache.Stats) float64 { return float64(s.Bytes) })
		gauge("rspq_cache_entries", "Resident cache entries, by tier.",
			func(s cache.Stats) float64 { return float64(s.Entries) })
	}
	cacheFuncs("tables", func() cache.Stats {
		if e.tables == nil {
			return cache.Stats{}
		}
		return e.tables.Stats()
	})
	cacheFuncs("results", func() cache.Stats {
		if e.results == nil {
			return cache.Stats{}
		}
		return e.results.Stats()
	})
}
