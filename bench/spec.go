package main

// metricSpec names one metric of BENCHMARK.json; the lists below are
// the single source the program emits from, and bench_test.go holds
// them equal to the committed BENCHMARK.json.
type metricSpec struct {
	name, unit string
}

// defaultSeconds is BENCHMARK.json's run_seconds: the time the five
// timed rounds of a workload take on the reference box at scale 1.
// Work is fixed, not time: -seconds only scales the op counts.
const defaultSeconds = 12

const timedRounds = 5

var workloadNames = []string{"paper-small", "flood-kernel", "serve-hot", "serve-churn"}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"reads_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"cpu_s_per_kop", "s"},
	{"peak_rss_mb", "MiB"},
}

// demoted are the end-to-end metrics the issue asked for that could not
// hold a bound of 10 % on every workload (README, "Noise and bounds").
// They are measured like the others and reported by the traced run, as
// per-layer metrics bench.<name>.
var demoted = []string{"read_p95_us", "write_p50_us"}

// perLayer is the layer ladder. A workload reports 0 for a layer it
// does not cross (README, "Per-layer metrics").
var perLayer = []metricSpec{
	// language side: automaton → core → psitr → Solver compile
	{"automaton.parse_us", "us"},
	{"automaton.mindfa_us", "us"},
	{"automaton.dfa_states", "count"},
	{"core.classify_us", "us"},
	{"core.witness_us", "us"},
	{"psitr.normalize_us", "us"},
	{"rspq.solver.compile_us", "us"},
	// Solver dispatch and the per-tier kernels it lands in
	{"rspq.solver.solve_us", "us"},
	{"rspq.solver.self_us", "us"},
	{"rspq.solver.allocs_per_op", "count"},
	{"rspq.kernel.finite_us", "us"},
	{"rspq.kernel.subword_us", "us"},
	{"rspq.kernel.summary_us", "us"},
	{"rspq.kernel.baseline_us", "us"},
	{"graph.pinview_pass_ns", "ns"},
	// backward product sweeps
	{"rspq.kernel.exists_us", "us"},
	{"rspq.kernel.shortest_us", "us"},
	{"rspq.kernel.rounds_per_query", "count"},
	{"rspq.kernel.bottom_up_round_share", "%"},
	{"rspq.kernel.bit_parallel_share", "%"},
	{"rspq.kernel.allocs_per_op", "count"},
	// BatchSolver
	{"rspq.batch.single_us", "us"},
	{"rspq.batch.group64_us_per_pair", "us"},
	{"rspqd.batch64_us_per_pair", "us"},
	// Engine, its caches, metrics registry, HTTP transport
	{"rspq.engine.cold_us", "us"},
	{"rspq.engine.table_hit_us", "us"},
	{"rspq.engine.result_hit_us", "us"},
	{"rspq.engine.self_us", "us"},
	{"rspq.engine.stage_pin_us", "us"},
	{"rspq.engine.stage_cache_us", "us"},
	{"rspq.engine.stage_table_us", "us"},
	{"rspq.engine.stage_kernel_us", "us"},
	{"rspq.engine.tuner_adjustments", "count"},
	{"cache.table_hit_ratio", "%"},
	{"cache.result_hit_ratio", "%"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.resident_mb", "MiB"},
	{"metrics.scrape_ms", "ms"},
	{"metrics.series", "count"},
	{"rspqd.query_us", "us"},
	{"rspqd.self_us", "us"},
	{"rspqd.non2xx", "count"},
	// mutation, overlay views, compaction, durability
	{"graph.pinview_overlay_us", "us"},
	{"graph.freeze_incr_ms", "ms"},
	{"graph.pending_delta_edges", "count"},
	{"graph.freezes_incr", "count"},
	{"rspq.engine.compact_ms", "ms"},
	{"rspq.engine.compactions", "count"},
	{"cache.evictions", "count"},
	{"persist.wal_append_us", "us"},
	{"persist.wal_bytes_per_op", "count"},
	{"persist.checkpoint_ms", "ms"},
	{"persist.checkpoints", "count"},
	{"rspqd.edges_us", "us"},
	{"rspqd.write_wait_us", "us"},
	// set-up and memory
	{"graph.mutate_ns_per_edge", "ns"},
	{"graph.build_ms", "ms"},
	{"graph.freeze_full_ms", "ms"},
	{"graph.freezes_full", "count"},
	{"rspqd.boot_cold_ms", "ms"},
	{"persist.recovery_ms", "ms"},
	{"rspqd.boot_warm_ms", "ms"},
	{"persist.snapshot_bytes_per_edge", "count"},
	{"graph.heap_bytes_per_edge", "count"},
	// demoted end-to-end metrics, the traced run's own cost, and the
	// machine's speed factor while the traced round ran
	{"bench.read_p95_us", "us"},
	{"bench.write_p50_us", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.spans", "count"},
	{"bench.machine_speed", "count"},
}
