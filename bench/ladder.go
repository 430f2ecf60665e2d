package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/automaton"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/psitr"
	"repro/internal/rspq"
)

// The layer ladder of the traced run. For a seeded sample of a
// workload's reads the same (x, y) is executed at every rung — bare
// tier function → Solver → BatchSolver (1 pair, then a 64-pair group) →
// Engine cold / table-hit / result-hit and Engine.SolveTraced → POST
// /query — each call inside a span recorded here, by the bench, never
// inside the program.
//
// Every rung asks what the read asked (sample.kind), so the rungs of one
// sample differ in the layer, not in the question. A call shorter than
// 100 µs is run once untimed and then in a block of calls under one span
// (spanLog.meanUS divides by the block's calls): the first call of a
// function pays for cold pools and code, and a 3 µs call timed alone is
// mostly clock. Longer calls, and the engine's cold rung, are timed
// singly.
//
// The rungs are separate calls, and from BatchSolver up they answer
// with another algorithm than the Solver (a backward sweep from y where
// the Solver searches forward from x), so a difference between two
// rungs is not a self time and none is reported as one. The self times
// are measured where one layer's call encloses the next one's:
//
//	rspq.solver.self_us  the Solver's own dispatch, Solver.ChooseAlgorithm
//	                     (validity, acyclicity verdict, tier choice), timed
//	                     directly; the rest of Solver.Solve is the tier call
//	rspq.engine.self_us  Engine.SolveTraced's total minus its kernel stage
//	                     (pin + result cache + table traffic + bookkeeping)
//	rspqd.self_us        a POST /query with "trace":true as the client sees
//	                     it minus the engine total the response reports
//
// BatchSolver offers no such enclosure; its rungs are reported as
// measured.

// sample is one read of a workload, replayed at every rung.
type sample struct {
	graph, lang int
	x, y        int
	exists      bool // the read asks for the existence bit only
	shortest    bool // the read asks for a shortest witness
}

type ladder struct {
	sp      *spanLog
	graphs  []*graph.Graph // bench-side copies the samples run on
	solvers []*rspq.Solver
	samples []sample
	roots   []int32 // the "ladder" span of each sample
	rng     *rand.Rand
}

func newLadder(sp *spanLog, graphs []*graph.Graph, patterns []string, samples []sample, seed int64) (*ladder, error) {
	l := &ladder{sp: sp, graphs: graphs, samples: samples, rng: newRNG(seed, 0x1adde4)}
	for _, p := range patterns {
		s, err := rspq.NewSolver(p)
		if err != nil {
			return nil, err
		}
		l.solvers = append(l.solvers, s)
	}
	for i := range samples {
		l.roots = append(l.roots, sp.begin("ladder", -1, int32(i)))
	}
	return l, nil
}

func (l *ladder) close() {
	for _, id := range l.roots {
		l.sp.end(id)
	}
}

// rungBlock is the time a repeated rung's block aims at; a call shorter
// than this is repeated (up to rungMaxReps times) under one span.
const (
	rungBlock   = 100 * time.Microsecond
	rungMaxReps = 64
)

// rung runs fn for every sample inside a span named by name(sample)
// ("" skips the sample) and returns the heap allocations per timed
// call. A call of rungBlock or longer is timed as it is, first time; a
// shorter one is discarded as the warm-up and followed by a block of
// calls under one span. (A long sweep must not be warmed by itself: the
// second sweep from the same target finds its rows in cache and took
// half the time of the first on the 1M-edge graph.)
func (l *ladder) rung(name func(sample) string, fn func(i int, s sample)) (allocsPerCall float64) {
	var m0, m1 runtime.MemStats
	var mallocs uint64
	calls := 0
	for i, s := range l.samples {
		n := name(s)
		if n == "" {
			continue
		}
		reps := 1
		runtime.ReadMemStats(&m0)
		id := l.sp.begin(n, l.roots[i], int32(i))
		fn(i, s)
		if d := l.sp.end(id); d < rungBlock {
			l.sp.drop(id)
			reps = min(int(rungBlock/max(d, time.Nanosecond)), rungMaxReps)
			runtime.ReadMemStats(&m0)
			id = l.sp.beginBlock(n, l.roots[i], int32(i), reps)
			for r := 0; r < reps; r++ {
				fn(i, s)
			}
			l.sp.end(id)
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		calls += reps
	}
	if calls == 0 {
		return 0
	}
	return float64(mallocs) / float64(calls)
}

func always(n string) func(sample) string { return func(sample) string { return n } }

// tierName maps the algorithm the Solver would dispatch to onto the
// kernel family its bare function belongs to; DAG inputs ride the same
// walk reduction as subword-closed languages.
func (l *ladder) tierName(s sample) string {
	switch l.solvers[s.lang].ChooseAlgorithm(l.graphs[s.graph]) {
	case rspq.AlgoFinite:
		return "finite"
	case rspq.AlgoSubword, rspq.AlgoDAG:
		return "subword"
	case rspq.AlgoSummary:
		return "summary"
	default:
		return "baseline"
	}
}

// bareTier calls the function Solver.Solve (or, for a shortest read,
// Solver.Shortest) would dispatch to, without the Solver.
func (l *ladder) bareTier(s sample) {
	g, sv := l.graphs[s.graph], l.solvers[s.lang]
	switch sv.ChooseAlgorithm(g) {
	case rspq.AlgoFinite:
		rspq.Finite(g, sv.Min, s.x, s.y)
	case rspq.AlgoSubword:
		rspq.Subword(g, sv.Min, s.x, s.y)
	case rspq.AlgoDAG:
		rspq.DAG(g, sv.Min, s.x, s.y)
	case rspq.AlgoSummary:
		rspq.SolvePsitr(g, sv.Expr, s.x, s.y, s.shortest)
	default:
		if s.shortest {
			rspq.BaselineShortest(g, sv.Min, s.x, s.y, nil)
		} else {
			rspq.Baseline(g, sv.Min, s.x, s.y, nil)
		}
	}
}

// inProcess runs the library rungs and fills their metrics.
func (l *ladder) inProcess(m map[string]float64) {
	sp := l.sp
	// Bare backward sweeps, for the walk-reduction reads only.
	walk := func(n string) func(sample) string {
		return func(s sample) string {
			if l.tierName(s) == "subword" {
				return n
			}
			return ""
		}
	}
	m["rspq.kernel.allocs_per_op"] = l.rung(walk("rung.kernel.exists"), func(_ int, s sample) {
		rspq.ExistsWalk(l.graphs[s.graph], l.solvers[s.lang].Min, s.x, s.y)
	})
	l.rung(walk("rung.kernel.shortest"), func(_ int, s sample) {
		rspq.ShortestWalk(l.graphs[s.graph], l.solvers[s.lang].Min, s.x, s.y)
	})
	l.rung(func(s sample) string { return "rung.kernel." + l.tierName(s) }, func(_ int, s sample) { l.bareTier(s) })
	// The Solver has no existence-only call; an exists read is a Solve.
	m["rspq.solver.allocs_per_op"] = l.rung(always("rung.solver"), func(_ int, s sample) {
		g, sv := l.graphs[s.graph], l.solvers[s.lang]
		if s.shortest {
			sv.Shortest(g, s.x, s.y)
		} else {
			sv.Solve(g, s.x, s.y)
		}
	})
	l.rung(always("rung.solver.dispatch"), func(_ int, s sample) {
		l.solvers[s.lang].ChooseAlgorithm(l.graphs[s.graph])
	})

	// One BatchSolver per (graph, language): it keeps nothing between
	// calls (tables are shared within a call, across the sources of one
	// target), so a call on a target seen before is as cold as the first.
	type key struct{ g, l int }
	batchers := map[key]*rspq.BatchSolver{}
	batcher := func(s sample) *rspq.BatchSolver {
		k := key{s.graph, s.lang}
		if batchers[k] == nil {
			batchers[k] = rspq.NewBatchSolver(l.solvers[s.lang], l.graphs[s.graph])
		}
		return batchers[k]
	}
	batch := func(s sample, pairs []rspq.Pair) {
		if s.exists {
			batcher(s).SolveExists(pairs)
		} else {
			batcher(s).Solve(pairs)
		}
	}
	l.rung(always("rung.batch1"), func(_ int, s sample) { batch(s, []rspq.Pair{{X: s.x, Y: s.y}}) })
	// A 64-pair group on one target, for the first few samples.
	groups := map[int][]rspq.Pair{}
	l.rung(func(sample) string {
		if len(groups) < 8 {
			return "rung.batch64"
		}
		return ""
	}, func(i int, s sample) {
		if groups[i] == nil {
			n := l.graphs[s.graph].NumVertices()
			groups[i] = make([]rspq.Pair, 64)
			for j := range groups[i] {
				groups[i][j] = rspq.Pair{X: l.rng.Intn(n), Y: s.y}
			}
		}
		batch(s, groups[i])
	})

	// Engine: one per (graph, language), default configuration.
	engines := map[key]*rspq.Engine{}
	seenY := map[key]map[int]bool{}
	engine := func(s sample) *rspq.Engine {
		k := key{s.graph, s.lang}
		if engines[k] == nil {
			engines[k] = rspq.NewEngine(l.solvers[s.lang], l.graphs[s.graph], rspq.EngineConfig{})
			seenY[k] = map[int]bool{}
		}
		return engines[k]
	}
	stages := map[string][]float64{}
	var engineSelf []float64
	ask := func(e *rspq.Engine, s sample, x int) {
		if s.exists {
			e.Exists(x, s.y)
		} else {
			e.Solve(x, s.y)
		}
	}
	const hitReps = 8
	others := make([]int, hitReps)
	for i, s := range l.samples {
		e := engine(s)
		k := key{s.graph, s.lang}
		n := l.graphs[s.graph].NumVertices()
		if !seenY[k][s.y] {
			seenY[k][s.y] = true
			if i%2 == 1 && !s.exists {
				// Every other cold read goes through SolveTraced for the
				// engine's own stage split; its span is kept apart.
				id := sp.begin("rung.engine.traced", l.roots[i], int32(i))
				_, tr := e.SolveTraced(s.x, s.y)
				sp.end(id)
				kernel := int64(0)
				for _, st := range tr.Stages {
					stages[st.Stage] = append(stages[st.Stage], float64(st.Nanos)/1e3)
					if st.Stage == "kernel" {
						kernel = st.Nanos
					}
				}
				engineSelf = append(engineSelf, float64(tr.TotalNanos-kernel)/1e3)
			} else {
				id := sp.begin("rung.engine.cold", l.roots[i], int32(i))
				ask(e, s, s.x)
				sp.end(id)
			}
		} else {
			ask(e, s, s.x) // make sure the pair is cached for the result-hit rung
		}
		// Table hit: sources not asked before, the target's table cached.
		for j := range others {
			others[j] = (s.x + 1 + l.rng.Intn(n-1)) % n
		}
		id := sp.beginBlock("rung.engine.table_hit", l.roots[i], int32(i), hitReps)
		for _, x := range others {
			ask(e, s, x)
		}
		sp.end(id)
		id = sp.beginBlock("rung.engine.result_hit", l.roots[i], int32(i), hitReps)
		for j := 0; j < hitReps; j++ {
			ask(e, s, s.x)
		}
		sp.end(id)
	}

	for _, tier := range []string{"finite", "subword", "summary", "baseline", "exists", "shortest"} {
		m["rspq.kernel."+tier+"_us"] = sp.meanUS("rung.kernel." + tier)
	}
	m["rspq.solver.solve_us"] = sp.meanUS("rung.solver")
	m["rspq.solver.self_us"] = sp.meanUS("rung.solver.dispatch")
	m["rspq.batch.single_us"] = sp.meanUS("rung.batch1")
	m["rspq.batch.group64_us_per_pair"] = sp.meanUS("rung.batch64") / 64
	m["rspq.engine.cold_us"] = sp.meanUS("rung.engine.cold")
	m["rspq.engine.table_hit_us"] = sp.meanUS("rung.engine.table_hit")
	m["rspq.engine.result_hit_us"] = sp.meanUS("rung.engine.result_hit")
	m["rspq.engine.self_us"] = mean(engineSelf)
	for _, st := range []string{"pin", "cache", "table", "kernel"} {
		m["rspq.engine.stage_"+st+"_us"] = mean(stages[st])
	}
	// Kernel-round and cache counters of the ladder's own engines; a
	// workload that owns a live engine or server overrides them with the
	// deltas of its traced round.
	var st rspq.EngineStats
	var reg *rspq.Engine
	for _, e := range engines {
		s := e.Stats()
		st.Queries += s.Queries
		st.ExchangeRounds += s.ExchangeRounds
		st.BottomUpRounds += s.BottomUpRounds
		st.BitParallelHits += s.BitParallelHits
		st.TunerAdjustments += s.TunerAdjustments
		st.Tables.Hits += s.Tables.Hits
		st.Tables.Misses += s.Tables.Misses
		st.Tables.Puts += s.Tables.Puts
		st.Tables.Evictions += s.Tables.Evictions
		st.Tables.Bytes += s.Tables.Bytes
		st.Results.Hits += s.Results.Hits
		st.Results.Misses += s.Results.Misses
		st.Results.Evictions += s.Results.Evictions
		st.Results.Bytes += s.Results.Bytes
		reg = e
	}
	engineCounters(m, st, rspq.EngineStats{})
	if reg != nil {
		// One in-process scrape of an engine's registry.
		var buf bytes.Buffer
		t0 := time.Now()
		reg.Metrics().WritePrometheus(&buf)
		m["metrics.scrape_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		m["metrics.series"] = float64(countSeries(buf.Bytes()))
	}
}

// countSeries counts the sample lines of a Prometheus text exposition.
func countSeries(text []byte) int {
	n := 0
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

func ratioPct(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// engineCounters turns the difference of two engine stat snapshots into
// the kernel-round, cache and compaction metrics.
func engineCounters(m map[string]float64, after, before rspq.EngineStats) {
	q := after.Queries - before.Queries + after.BatchPairs - before.BatchPairs
	rounds := after.ExchangeRounds - before.ExchangeRounds
	if q > 0 {
		m["rspq.kernel.rounds_per_query"] = float64(rounds) / float64(q)
	}
	m["rspq.kernel.bottom_up_round_share"] = ratioPct(after.BottomUpRounds-before.BottomUpRounds, rounds)
	tm := after.Tables.Misses - before.Tables.Misses
	th := after.Tables.Hits - before.Tables.Hits
	rm := after.Results.Misses - before.Results.Misses
	rh := after.Results.Hits - before.Results.Hits
	// Share of backward sweeps (one per table built) that ran packed.
	m["rspq.kernel.bit_parallel_share"] = ratioPct(after.BitParallelHits-before.BitParallelHits, after.Tables.Puts-before.Tables.Puts)
	m["cache.table_hit_ratio"] = ratioPct(th, th+tm)
	m["cache.result_hit_ratio"] = ratioPct(rh, rh+rm)
	m["cache.resident_mb"] = float64(after.Tables.Bytes+after.Results.Bytes) / (1 << 20)
	m["cache.evictions"] = float64(after.Tables.Evictions - before.Tables.Evictions + after.Results.Evictions - before.Results.Evictions)
	m["rspq.engine.tuner_adjustments"] = float64(after.TunerAdjustments - before.TunerAdjustments)
	m["rspq.engine.compactions"] = float64(after.Compactions - before.Compactions)
	if c := after.Compactions - before.Compactions; c > 0 {
		m["rspq.engine.compact_ms"] = 1e3 * (after.CompactionSeconds - before.CompactionSeconds) / float64(c)
	}
	m["graph.pending_delta_edges"] = float64(after.PendingAdds + after.PendingRemoves)
	m["graph.freezes_incr"] = float64(after.IncrementalFreezes - before.IncrementalFreezes)
	m["graph.freezes_full"] = float64(after.FullFreezes - before.FullFreezes)
}

// languageSide times the compile pipeline of every pattern, stage by
// stage: automaton (parse, minimal DFA) → core (classify, and within it
// the hardness-witness search of an NP-complete language) → psitr
// (normal form) → the whole of rspq.NewSolver. Values are means over
// the patterns.
func languageSide(patterns []string, m map[string]float64) {
	// A stage is repeated up to 5 times while its repetitions stay under
	// 20 ms; Figure 1's 34 ms hardness-witness search runs once.
	acc := map[string]float64{}
	timeIt := func(name string, fn func()) {
		t0 := time.Now()
		reps := 0
		for reps < 5 && (reps == 0 || time.Since(t0) < 20*time.Millisecond) {
			fn()
			reps++
		}
		acc[name] += float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
	}
	states := 0.0
	for _, p := range patterns {
		var r *automaton.Regex
		var min *automaton.DFA
		timeIt("automaton.parse_us", func() { r, _ = automaton.ParseRegex(p) })
		timeIt("automaton.mindfa_us", func() { min = automaton.CompileRegexToMinDFA(r, nil) })
		var class core.Classification
		timeIt("core.classify_us", func() { class = core.Classify(min, core.EdgeLabeled, nil) })
		if class.Class == core.NPComplete {
			// On a tractable language the search has nothing to find and
			// Classify never runs it.
			timeIt("core.witness_us", func() { core.ExtractHardnessWitness(min, nil) })
		}
		timeIt("psitr.normalize_us", func() { psitr.FromRegex(r) })
		timeIt("rspq.solver.compile_us", func() { rspq.NewSolver(p) })
		states += float64(min.NumStates)
	}
	for k, v := range acc {
		m[k] = v / float64(len(patterns))
	}
	m["automaton.dfa_states"] = states / float64(len(patterns))
}

// graphProbes builds a fresh copy of a workload's graph and times the
// graph layer on it: build, first (full) freeze, heap per edge, a clean
// PinView, one mutation batch, the overlay PinView that follows it and
// the incremental freeze that merges it.
func graphProbes(list edgeList, flips []graph.Edge, m map[string]float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	g := list.build()
	m["graph.build_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	t0 = time.Now()
	g.Freeze()
	m["graph.freeze_full_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m["graph.heap_bytes_per_edge"] = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(len(list.edges))

	const pins = 1 << 16
	t0 = time.Now()
	for i := 0; i < pins; i++ {
		g.PinView()
	}
	m["graph.pinview_pass_ns"] = float64(time.Since(t0).Nanoseconds()) / pins

	if len(flips) == 0 {
		return
	}
	t0 = time.Now()
	graph.FlipEdges(g, flips)
	m["graph.mutate_ns_per_edge"] = float64(time.Since(t0).Nanoseconds()) / float64(len(flips))
	t0 = time.Now()
	g.PinView()
	m["graph.pinview_overlay_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3
	t0 = time.Now()
	g.Freeze()
	m["graph.freeze_incr_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.KeepAlive(g)
}

// cacheProbes times internal/cache directly: Put into and Get from a
// cache shaped like the engine's result tier.
func cacheProbes(m map[string]float64) {
	const n = 1 << 16
	c := cache.New[uint64, int](cache.Config{MaxBytes: rspq.DefaultResultBytes})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Put(uint64(i), i, 96)
	}
	m["cache.put_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	hits := 0
	for i := 0; i < n; i++ {
		if _, ok := c.Get(uint64(i)); ok {
			hits++
		}
	}
	m["cache.get_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	runtime.KeepAlive(hits)
}

// walProbe times internal/persist's WAL append directly under the
// workload's flush policy (-fsync off) and measures its bytes per op.
func walProbe(dir string, batch []graph.Edge, m map[string]float64) error {
	if len(batch) == 0 {
		return nil
	}
	dir = filepath.Join(dir, "walprobe")
	defer os.RemoveAll(dir)
	policy, err := persist.ParseSyncPolicy("off")
	if err != nil {
		return err
	}
	db, _, err := persist.Open(persist.Options{Dir: dir, Sync: policy,
		Bootstrap: func() (*graph.Graph, error) { return graph.New(2), nil }})
	if err != nil {
		return err
	}
	ops := make([]persist.Op, len(batch))
	for i, e := range batch {
		ops[i] = persist.Op{Kind: persist.OpAddEdge, From: e.From, Label: e.Label, To: e.To}
	}
	const appends = 256
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		if _, err := db.LogBatch(ops); err != nil {
			db.Close()
			return err
		}
	}
	m["persist.wal_append_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / appends
	if err := db.Sync(); err != nil {
		db.Close()
		return err
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.rspq")); err == nil {
		m["persist.wal_bytes_per_op"] = float64(fi.Size()) / float64(appends*len(ops))
	}
	return db.Close()
}
