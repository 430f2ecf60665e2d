package rspq

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEngineMatchesSolver holds one Engine, kept across its graph's
// epochs, to the reference on every answer row: cold, again — the second
// pass served from warm caches — and after a delta, where every cache
// key must go stale through the epoch, with no purge call anywhere.
func TestEngineMatchesSolver(t *testing.T) {
	runMatrix(t, answerRows(), []int64{0}, [][]hView{{frozen, frozen, overlay(3)}}, func(t *testing.T, c *hCase) {
		before := c.kept.Stats()
		checkSurfaces(t, c, c.pairs(0), "Engine/kept")
		after := c.kept.Stats()
		if c.view == "frozen" && before.Queries > 0 && after.Results.Hits <= before.Results.Hits {
			t.Fatalf("%s: the second pass should hit the result cache: %+v then %+v", c, before.Results, after.Results)
		}
		if c.view != "frozen" && after.SnapshotRebuilds < 2 {
			t.Fatalf("%s: the delta must force a snapshot rebuild; rebuilds = %d", c, after.SnapshotRebuilds)
		}
	})
}

// TestEngineBatchMatchesSolve holds Engine.BatchSolve and
// BatchSolveExists, invalid ids mixed in, to the reference on an
// extended overlay of every answer row; a second batch over the same
// pairs must answer alike and come from the result cache.
func TestEngineBatchMatchesSolve(t *testing.T) {
	runMatrix(t, answerRows(), []int64{5}, [][]hView{{extended}}, func(t *testing.T, c *hCase) {
		pairs := c.pairs(0)
		r := checkSurfaces(t, c, pairs, "Engine/kept")
		before := c.kept.Stats().Results.Hits
		c.check(t, r, "Engine.BatchSolve (again)", c.kept.BatchSolve(pairs), askSame)
		if c.kept.Stats().Results.Hits <= before {
			t.Fatalf("%s: a repeated batch should hit the result cache", c)
		}
	})
}

// TestEngineEvictionUnderPressure shrinks both budgets below the cost
// of any single entry: tables are then never even exported (the
// Retainable pre-check skips the copy), results are rejected on
// arrival, and answers must stay correct throughout (the Engine/1-byte
// surface).
func TestEngineEvictionUnderPressure(t *testing.T) {
	runMatrix(t, answerRows(), []int64{11}, [][]hView{{overlay(6)}}, func(t *testing.T, c *hCase) {
		checkSurfaces(t, c, c.pairs(0), "Engine/1-byte")
	})
}

// TestEngineTableLRUEviction sizes the table budget so each cache
// shard holds about one backward-BFS table, then queries more distinct
// targets than shards: by pigeonhole at least one shard sees two
// tables and must evict the older, while every answer stays correct.
// Every target is asked as one batch group that includes an isolated
// source, so its sweep runs to the end and leaves a table; a miss whose
// sweep stops with its sources answered must put nothing.
func TestEngineTableLRUEviction(t *testing.T) {
	g := graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, 12)
	isolated := g.AddVertex()
	s := mustSolver(t, "a*c*") // subword tier: one goalTable per target
	nm := g.NumVertices() * s.Min.NumStates
	// 16 shards (the cache default): per-shard budget = one table + slack.
	budget := (goalTableCost(nm) + 64) * 16
	e := NewEngine(s, g, EngineConfig{TableBytes: budget})
	for y := 0; y < 40; y++ {
		pairs := []Pair{{X: 0, Y: y}, {X: 7, Y: y}, {X: 23, Y: y}, {X: isolated, Y: y}}
		for i, got := range e.BatchSolve(pairs) {
			if want := s.Solve(g, pairs[i].X, y).Found; got.Found != want {
				t.Fatalf("(%d,%d): engine %v, cold %v", pairs[i].X, y, got.Found, want)
			}
		}
	}
	st := e.Stats()
	if st.Tables.Evictions == 0 {
		t.Fatalf("40 targets over 16 one-table shards must evict: %+v", st.Tables)
	}
	if st.Tables.Puts != 40 || st.StoppedSweeps != 0 {
		t.Fatalf("each target must compute its table exactly once per residence; puts = %d, stopped sweeps = %d", st.Tables.Puts, st.StoppedSweeps)
	}

	// A stopped miss: the first source other than the target with a path.
	fresh := NewEngine(s, g, EngineConfig{TableBytes: budget})
	y, x := 3, 0
	for x == y || !s.Solve(g, x, y).Found {
		if x++; x == isolated {
			t.Fatalf("no source reaches %d", y)
		}
	}
	if !fresh.Solve(x, y).Found {
		t.Fatalf("(%d,%d): engine finds no path", x, y)
	}
	if st := fresh.Stats(); st.StoppedSweeps != 1 || st.Tables.Puts != 0 || st.Results.Puts != 1 {
		t.Fatalf("a stopped miss must put its answer and no table: stopped sweeps %d, %+v / %+v", st.StoppedSweeps, st.Tables, st.Results)
	}
}

// TestExistsTableLookups pins what a subword-tier existence ask costs
// the table cache. A cached co-table answers with one lookup and no
// miss; a goal table cached by an earlier Solve still answers with no
// sweep (its lookup follows the co-table's miss and counts no second
// one); and a cold ask counts one miss. Results are off, so every ask
// reaches the tables, and an isolated source keeps each sweep running
// to the end, so its table is cached.
func TestExistsTableLookups(t *testing.T) {
	g := graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, 12)
	isolated := g.AddVertex()
	s := mustSolver(t, "a*c*")
	e := NewEngine(s, g, EngineConfig{ResultBytes: -1})
	step := func(what string, ask func(), hits, misses, sweeps int64) {
		t.Helper()
		before := e.Stats()
		ask()
		after := e.Stats()
		dh, dm := after.Tables.Hits-before.Tables.Hits, after.Tables.Misses-before.Tables.Misses
		ds := after.BitParallelHits - before.BitParallelHits
		if dh != hits || dm != misses || ds != sweeps {
			t.Errorf("%s: %d table hits, %d misses, %d sweeps; want %d, %d, %d", what, dh, dm, ds, hits, misses, sweeps)
		}
	}
	step("a cold exists", func() { e.Exists(isolated, 5) }, 0, 1, 1)
	step("an exists on the cached co-table", func() { e.Exists(0, 5) }, 1, 0, 0)
	step("a cold solve", func() { e.Solve(isolated, 9) }, 0, 1, 1)
	step("an exists on the cached goal table", func() { e.Exists(0, 9) }, 1, 1, 0)
	if got, want := e.Exists(7, 9), s.Solve(g, 7, 9).Found; got != want {
		t.Errorf("Exists(7, 9) = %v from the goal table, Solve finds %v", got, want)
	}
	if got, want := e.Exists(7, 5), s.Solve(g, 7, 5).Found; got != want {
		t.Errorf("Exists(7, 5) = %v from the co-table, Solve finds %v", got, want)
	}
}

// TestEvaluatorEquivalence pins the one table-sharing evaluator behind
// BatchSolver and Engine: on every answer row, one subtest per surface,
// each held to the reference and to Solver.Solve's witnesses. The Engine
// surfaces run with both cache tiers on, disabled and squeezed to
// one byte, each ask both cold and behind what the others left cached.
func TestEvaluatorEquivalence(t *testing.T) {
	for _, row := range answerRows() {
		for _, sf := range surfaces {
			t.Run(row.name+"/"+sf.name, func(t *testing.T) {
				c := newCase(t, row, row.pattern, row.graph(3, 0), 3)
				checkSurfaces(t, c, c.pairs(0), sf.name)
			})
		}
	}
}

// TestEngineMissAllocGuard pins the single-query miss path: a query is
// a target group of one built on the caller's stack, so answering an
// unseen target allocates no group slices or maps. With both cache
// tiers off nothing is retained either, and the sweep behind the miss
// keeps its state in the arena or on the stack (see
// TestDistBitsAllocGuard), so no tier allocates at all. The
// stopped-sweep row asks only pairs that have a path, so every subword
// sweep stops once its source is answered: the probe list lives in the
// arena too.
func TestEngineMissAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	const limit = 0.0                // allocs per miss, on every tier
	for _, row := range tierRows() { // the other rows share these tiers' paths
		s := mustSolver(t, row.pattern)
		g := graph.RandomRegular(600, []byte{'a', 'b', 'c'}, 3, 400)
		e := NewEngine(s, g, EngineConfig{TableBytes: -1, ResultBytes: -1})
		for i := 0; i < 64; i++ { // warm the arena and searcher pools
			e.Exists(i, 599-i%8)
		}
		var avg float64
		for attempt := 0; attempt < 3 && (attempt == 0 || avg > limit); attempt++ {
			y := 0
			avg = testing.AllocsPerRun(400, func() {
				e.Exists((y*7)%600, y%590)
				y++
			})
		}
		if avg > limit {
			t.Fatalf("%s: Engine.Exists on an unseen target allocates %.2f allocs/op; the bound is %.0f", row.name, avg, limit)
		}
	}

	s := mustSolver(t, "a*c*")
	g := graph.RandomRegular(600, []byte{'a', 'b', 'c'}, 3, 400)
	var found []Pair
	for i := 0; len(found) < 64 && i < 600*600; i++ {
		if x, y := i%600, (i*7)%599; x != y && ExistsWalk(g, s.Min, x, y) {
			found = append(found, Pair{X: x, Y: y})
		}
	}
	e := NewEngine(s, g, EngineConfig{TableBytes: -1, ResultBytes: -1})
	for _, pq := range found { // warm the arena pool
		e.Exists(pq.X, pq.Y)
	}
	before := e.Stats().StoppedSweeps
	i := 0
	avg := testing.AllocsPerRun(400, func() {
		e.Exists(found[i%len(found)].X, found[i%len(found)].Y)
		i++
	})
	if stopped := e.Stats().StoppedSweeps - before; stopped != int64(i) {
		t.Fatalf("%d of %d sweeps stopped; every pair has a path", stopped, i)
	}
	if avg > 0 {
		t.Fatalf("Engine.Exists whose sweep stops allocates %.2f allocs/op; the bound is 0", avg)
	}
}

// TestEngineMissWorkGuard pins what a table miss on the cached
// walk-reduction tier may cost when its sweep is short, in exact work
// rather than time: on a 100k-vertex graph whose backward sweeps reach
// under 1k product states, a miss allocates under 64 KiB (the dense
// export allocated 9 B per product id — 2.7 MB here — whatever the sweep
// touched) and 256 retained tables stay under 4 MiB. Each miss asks from
// an isolated source, so its sweep runs to the end and leaves a table
// (a sweep that stops with its source answered leaves none). The engine
// runs with default caches, as a server would. From the warm-up through
// the measurement the garbage collector is off and one P runs the test,
// so the warm arena is in the pool's only per-P slot when a measured miss
// asks for it: no collection can empty the pool, and no miss can run on a
// P whose slot is empty and allocate its arena again.
func TestEngineMissWorkGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	s := mustSolver(t, "a*c*")
	// 100 000 vertices with two random out-edges each, built in O(edges)
	// (graph.RandomRegular draws a permutation per vertex). Each label's
	// in-degree averages 2/3, so a backward a*c* sweep is a subcritical
	// branching process: a handful to a few hundred product states.
	g, rng := graph.New(100000), rand.New(rand.NewSource(100))
	for u := 0; u < 100000; u++ {
		for k := 0; k < 2; k++ {
			g.AddEdge(u, "abc"[rng.Intn(3)], rng.Intn(100000))
		}
	}
	isolated := g.AddVertex()
	n := g.NumVertices()
	e := NewEngine(s, g, EngineConfig{})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for y := 0; y < 32; y++ { // warm the arena pool
		e.Solve((y*31)%n, n-1-y)
	}
	const misses = 256
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for y := 0; y < misses; y++ {
		e.Solve(isolated, y*389) // 256 distinct targets, none seen before
	}
	runtime.ReadMemStats(&m1)
	if perMiss := (m1.TotalAlloc - m0.TotalAlloc) / misses; perMiss >= 64<<10 {
		t.Fatalf("a short-sweep table miss allocates %d B on average; the bound is 64 KiB", perMiss)
	}
	if stopped := e.Stats().StoppedSweeps; stopped != 0 {
		t.Fatalf("%d sweeps stopped, but an isolated source leaves every sweep to run to the end", stopped)
	}
	st := e.Stats().Tables
	if st.Misses < misses || st.Entries < misses {
		t.Fatalf("every query must have missed and retained its table: %+v", st)
	}
	if st.Bytes >= 4<<20 {
		t.Fatalf("%d short-sweep tables occupy %d B of the table cache; the bound is 4 MiB", st.Entries, st.Bytes)
	}
	// The premise, checked on a sample through the trace: the sweeps are
	// short and their tables are the sparse form.
	for y := 0; y < misses; y += 16 {
		_, tr := e.SolveTraced(1, y*389)
		if !tr.TableCacheHit || tr.TableStates >= 1000 || tr.TableBytes != sparseGoalTableCost(tr.TableStates) {
			t.Fatalf("target %d: trace %+v; want a cached sparse table of < 1000 states", y*389, tr)
		}
	}
}

// TestGoalTableSparseEqualsDense builds both goal-table forms from the
// same arena — calling the two builders directly, whatever
// exportGoalTable would have picked — and requires them to answer alike
// for EVERY product id: distances, equal to the arena's, and the walk
// read off them from (x, q) for every vertex x and every state q standing
// in as the start state, which covers unreachable ids, goal ids (the
// empty walk) and every id in between. Every walk is checked against the
// graph and the DFA as well.
func TestGoalTableSparseEqualsDense(t *testing.T) {
	for _, tc := range []struct {
		row string
		n   int
	}{{"subword", 120}, {"summary", 0}, {"dag", 0}, {"wide", 0}} { // wide: 67 states, two lanes
		row := tier(tc.row)
		c := newCase(t, row, row.pattern, row.graph(0, tc.n), 0)
		s, g, isolated := c.s, c.g, c.isolated
		a := new(arena)
		p := makeProduct(g.PinView(), s.Min, a)
		floods := 0
		for _, y := range []int{0, 7, g.NumVertices() / 2, isolated} {
			p.distToGoal(y, a)
			var scanned *goalTable // a flooding sweep's sparse form, from the scan of its words
			if !a.dirtyOK {
				scanned = newSparseGoalTable(a, a.reachedCount())
				floods++
				// List the non-zero words by hand, for the dirty-list build.
				a.dirty = a.dirty[:0]
				for kv, w := range a.co.w {
					if w != 0 {
						a.dirty = append(a.dirty, int32(kv))
					}
				}
				rand.New(rand.NewSource(int64(y))).Shuffle(len(a.dirty), func(i, j int) {
					a.dirty[i], a.dirty[j] = a.dirty[j], a.dirty[i]
				})
				a.dirtyOK = true
			}
			sparse, dense := newSparseGoalTable(a, a.reachedCount()), newDenseGoalTable(a)
			if scanned != nil && (!slices.Equal(scanned.ids, sparse.ids) || !slices.Equal(scanned.dist, sparse.dist)) {
				t.Fatalf("%s y=%d: the scanned sparse form differs from the listed one", c, y)
			}
			if dense.ids != nil || sparse.ids == nil || dense.states != sparse.states || sparse.states != len(sparse.ids) {
				t.Fatalf("%s y=%d: forms (dense ids=%v states=%d, sparse ids=%v states=%d)",
					c, y, dense.ids != nil, dense.states, sparse.ids != nil, sparse.states)
			}
			for x := 0; x < p.n; x++ {
				for q := 0; q < p.m; q++ {
					d := a.distAt(x, q)
					if dd, sd := dense.distAt(x, q), sparse.distAt(x, q); dd != d || sd != d {
						t.Fatalf("%s y=%d (%d,q%d): distance dense=%d sparse=%d arena=%d", c, y, x, q, dd, sd, d)
					}
					dw, sw := p.walkFrom(dense, x, q), p.walkFrom(sparse, x, q)
					if (dw == nil) != (sw == nil) || (dw == nil) != (d < 0) {
						t.Fatalf("%s y=%d (%d,q%d): walk dense=%v sparse=%v, distance %d", c, y, x, q, dw, sw, d)
					}
					if dw == nil {
						continue
					}
					if !slices.Equal(dw.Vertices, sw.Vertices) || !slices.Equal(dw.Labels, sw.Labels) {
						t.Fatalf("%s y=%d (%d,q%d): dense walk %v, sparse walk %v", c, y, x, q, dw, sw)
					}
					checkWalkBitValid(t, s.Min, g, sw, x, q, y, d)
				}
			}
		}
		if row.name != "subword" && floods == 0 {
			t.Fatalf("%s: no sweep flooded, so the scanned sparse form went untested", c)
		}
	}
}

// TestEngineConcurrentHits hammers one engine from many goroutines
// over a hot pair set of every answer row; run under -race this
// exercises the sharded cache locking and the shared immutable tables,
// and every answer must be the reference's.
func TestEngineConcurrentHits(t *testing.T) {
	runMatrix(t, answerRows(), []int64{7}, [][]hView{{frozen}}, func(t *testing.T, c *hCase) {
		r := c.reference(t, c.pairs(c.g.NumVertices()/4))
		e := c.kept
		concurrently(8, func(w int) {
			for rep := 0; rep < 10; rep++ {
				for i, pq := range r.pairs {
					var got bool
					if (w+rep)%2 == 0 {
						got = e.Solve(pq.X, pq.Y).Found
					} else {
						got = e.Exists(pq.X, pq.Y)
					}
					if got != r.found[i] {
						t.Errorf("%s worker %d: (%d,%d) = %v; want %v", c, w, pq.X, pq.Y, got, r.found[i])
						return
					}
				}
				if (w+rep)%3 == 0 {
					for i, got := range e.BatchSolveExists(r.pairs) {
						if got != r.found[i] {
							t.Errorf("%s worker %d batch: pair %d = %v; want %v", c, w, i, got, r.found[i])
							return
						}
					}
				}
			}
		})
		if st := e.Stats(); st.Results.Hits == 0 {
			t.Fatalf("%s: the concurrent hot workload must produce cache hits: %+v", c, st)
		}
	})
}

// TestRoundAccountingSplit pins the round accounting: ExchangeRounds
// counts exactly the rounds the sweeps ran, as their traces record them,
// and BitParallelHits counts the sweeps.
func TestRoundAccountingSplit(t *testing.T) {
	s := mustSolver(t, "a*c*")
	g := graph.Random(40, []byte{'a', 'b', 'c'}, 0.1, 5)
	eng := NewEngine(s, g, EngineConfig{})
	traced := 0
	for x := 0; x < 40; x += 5 {
		for _, y := range []int{(x + 7) % 40, (x + 13) % 40} {
			_, tr := eng.SolveTraced(x, y)
			traced += len(tr.Rounds)
		}
	}
	st := eng.Stats()
	if traced == 0 || st.ExchangeRounds != int64(traced) {
		t.Fatalf("ExchangeRounds = %d, traced rounds = %d", st.ExchangeRounds, traced)
	}
	if st.BitParallelHits == 0 {
		t.Fatalf("the misses ran sweeps, but none was counted: %+v", st)
	}
}

// TestWarmThenMutateThenSolve is the regression for the Warm/epoch
// consistency fix: a mutation landing between Warm and the query must
// never be answered from the stale pre-mutation table — by the solver
// or by an engine built before the mutation.
func TestWarmThenMutateThenSolve(t *testing.T) {
	g := edgeGraph(4, "0a1 1c2")
	s := mustSolver(t, "a*c*")
	s.Warm(g)
	e := NewEngine(s, g, EngineConfig{})
	if e.Solve(0, 3).Found {
		t.Fatal("vertex 3 is isolated; no path expected")
	}
	// The mutation invalidates, via the epoch, everything warmed above.
	g.AddEdge(2, 'c', 3)
	if !s.Solve(g, 0, 3).Found {
		t.Fatal("Solver served a stale verdict after mutation")
	}
	if res := e.Solve(0, 3); !res.Found || !VerifyWitness(res, g, s.Min, 0, 3) {
		t.Fatalf("Engine served a stale cached verdict or an invalid witness after mutation: %v", res.Path)
	}
}

// TestWarmEpochRace interleaves a mutator and a warm-then-query loop
// under the race detector. The test's mutex stands in for the external
// synchronization the graph contract requires; what the -race run
// checks is that Warm/Snapshot/Engine keep no unsynchronized internal
// state of their own, and the assertions check that no interleaving
// can pair a stale table with a new epoch.
func TestWarmEpochRace(t *testing.T) {
	g := graph.New(64)
	for i := 0; i < 63; i++ {
		g.AddEdge(i, 'a', i+1)
	}
	s := mustSolver(t, "a*c*")
	e := NewEngine(s, g, EngineConfig{})
	var mu sync.Mutex
	mrng := rand.New(rand.NewSource(1))
	mutate := func() {
		mu.Lock()
		g.AddEdge(mrng.Intn(64), 'c', mrng.Intn(64))
		mu.Unlock()
	}
	whileLooping(func() {
		concurrently(4, func(w int) { // warm-then-query loops
			rng := rand.New(rand.NewSource(int64(w + 2)))
			for i := 0; i < 200; i++ {
				x, y := rng.Intn(64), rng.Intn(64)
				mu.Lock()
				s.Warm(g)
				got := e.Solve(x, y)
				want := s.Solve(g, x, y)
				epoch := g.Epoch()
				mu.Unlock()
				if got.Found != want.Found {
					t.Errorf("worker %d: engine %v vs cold %v for (%d,%d) at epoch %d",
						w, got.Found, want.Found, x, y, epoch)
					return
				}
			}
		})
	}, mutate)
}

// TestEngineStatsShape sanity-checks the counters a server would
// export.
func TestEngineStatsShape(t *testing.T) {
	c := newCase(t, tier("summary"), "a*(bb+|())c*", graph.RandomRegular(50, []byte{'a', 'b', 'c'}, 3, 3), 3)
	e := NewEngine(c.s, c.g, EngineConfig{Workers: 2})
	pairs := c.pairs(0)
	e.BatchSolve(pairs)
	e.BatchSolve(pairs)
	for _, pq := range pairs[:5] {
		e.Solve(pq.X, pq.Y)
	}
	st := e.Stats()
	if st.Algorithm != "summary" {
		t.Fatalf("algorithm = %q; want summary", st.Algorithm)
	}
	if st.Batches != 2 || st.BatchPairs != int64(2*len(pairs)) || st.Queries != 5 {
		t.Fatalf("counters off: %+v", st)
	}
	if st.Tables.Puts == 0 || st.Results.Hits == 0 {
		t.Fatalf("caches unused: %+v", st)
	}
	if st.SnapshotRebuilds != 1 {
		t.Fatalf("rebuilds = %d; want 1 (construction only)", st.SnapshotRebuilds)
	}
}

// TestEngineServesOneTier pins that an Engine serves its language's one
// tier: for the language of each answer row, the registry holds one
// rspq_queries_total and one rspq_query_seconds series, labelled with
// the row's tier, and EngineStats.Algorithm and a traced query's
// Tier name that tier.
func TestEngineServesOneTier(t *testing.T) {
	g := graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, 7)
	for _, row := range answerRows() {
		tier := row.algo
		e := NewEngine(compiledSolver(t, row.pattern), g, EngineConfig{})
		_, tr := e.SolveTraced(0, 1)
		e.Solve(2, 3)
		var queries, latency []string
		for k := range e.Metrics().Snapshot() {
			switch {
			case strings.HasPrefix(k, "rspq_queries_total{"):
				queries = append(queries, k)
			case strings.HasPrefix(k, "rspq_query_seconds_count{"):
				latency = append(latency, k)
			}
		}
		label := `{tier="` + tier.String() + `"}`
		if !slices.Equal(queries, []string{"rspq_queries_total" + label}) ||
			!slices.Equal(latency, []string{"rspq_query_seconds_count" + label}) {
			t.Errorf("%q: query series %v and latency series %v, want one of each labelled %s",
				row.pattern, queries, latency, label)
		}
		if st := e.Stats(); st.Algorithm != tier.String() || st.Queries != 2 {
			t.Errorf("%q: EngineStats.Algorithm = %q after %d queries, want %q after 2",
				row.pattern, st.Algorithm, st.Queries, tier)
		}
		if tr.Tier != tier.String() {
			t.Errorf("%q: traced tier %q, want %q", row.pattern, tr.Tier, tier)
		}
	}
}

// TestEngineLangIDsDistinct guards the (epoch, language, y) key
// contract: two engines over the same graph but different languages
// must never cross-serve, even with identical targets.
func TestEngineLangIDsDistinct(t *testing.T) {
	g := graph.RandomRegular(40, []byte{'a', 'b', 'c'}, 3, 31)
	s1, s2 := mustSolver(t, "a*c*"), mustSolver(t, "b*")
	if s1.LangID() == s2.LangID() {
		t.Fatal("distinct solvers must get distinct language ids")
	}
	e1 := NewEngine(s1, g, EngineConfig{})
	e2 := NewEngine(s2, g, EngineConfig{})
	for x := 0; x < 40; x++ {
		for _, y := range []int{1, 7} {
			if e1.Solve(x, y).Found != s1.Solve(g, x, y).Found {
				t.Fatalf("engine 1 diverged at (%d,%d)", x, y)
			}
			if e2.Solve(x, y).Found != s2.Solve(g, x, y).Found {
				t.Fatalf("engine 2 diverged at (%d,%d)", x, y)
			}
		}
	}
}
