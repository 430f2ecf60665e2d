package trichotomy

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/rspq"
)

// TestExistsWalkAllocGuard is the CI guard for the zero-allocation
// contract tracked by BenchmarkExistsWalk: a warm boolean RPQ query
// must not allocate at all. It runs the benchmark's exact workload
// through testing.AllocsPerRun and fails on any steady-state
// allocation, so a regression breaks `go test` rather than silently
// shifting a benchmark number. A few attempts tolerate one-off pool
// refills after a GC.
func TestExistsWalkAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	d, err := automaton.MinDFAFromPattern("a*b(a|b|c)*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
	g.Freeze()
	rng := rand.New(rand.NewSource(11))
	type pq struct{ x, y int }
	pairs := make([]pq, 32)
	for i := range pairs {
		pairs[i] = pq{rng.Intn(400), rng.Intn(400)}
	}
	for i := 0; i < 64; i++ { // warm the arena pool and all lazy indexes
		rspq.ExistsWalk(g, d, pairs[i%len(pairs)].x, pairs[i%len(pairs)].y)
	}
	var avg float64
	for attempt := 0; attempt < 3; attempt++ {
		i := 0
		avg = testing.AllocsPerRun(200, func() {
			p := pairs[i%len(pairs)]
			i++
			rspq.ExistsWalk(g, d, p.x, p.y)
		})
		if avg == 0 {
			return
		}
	}
	t.Fatalf("ExistsWalk allocates %.2f allocs/op warm; the contract is 0", avg)
}

// TestShortestWalkAllocGuard pins that a warm ShortestWalk allocates
// only the path it returns: at most 3 allocations (the vertex and label
// slices and the Path) for a found pair, none for a pair without a walk.
// The sweep's words, distances and probe scratch all come from the
// pooled arena. It runs BenchmarkShortestWalk's n=400 workload.
func TestShortestWalkAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	d, err := automaton.MinDFAFromPattern("a*b(a|b|c)*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
	isolated := g.AddVertex() // no walk starts here
	g.Freeze()
	rng := rand.New(rand.NewSource(11))
	type pq struct{ x, y int }
	var found, missing []pq
	for len(found) < 32 {
		p := pq{rng.Intn(400), rng.Intn(400)}
		if rspq.ExistsWalk(g, d, p.x, p.y) {
			found = append(found, p)
		}
	}
	for i := 0; i < 32; i++ {
		missing = append(missing, pq{isolated, rng.Intn(400)})
	}
	for _, c := range []struct {
		name  string
		pairs []pq
		max   float64
	}{{"found", found, 3}, {"not found", missing, 0}} {
		for i := 0; i < 64; i++ { // warm the arena pool and all lazy indexes
			rspq.ShortestWalk(g, d, c.pairs[i%len(c.pairs)].x, c.pairs[i%len(c.pairs)].y)
		}
		var avg float64
		for attempt := 0; attempt < 3; attempt++ {
			i := 0
			avg = testing.AllocsPerRun(200, func() {
				p := c.pairs[i%len(c.pairs)]
				i++
				rspq.ShortestWalk(g, d, p.x, p.y)
			})
			if avg <= c.max {
				break
			}
		}
		if avg > c.max {
			t.Errorf("ShortestWalk (%s) allocates %.2f allocs/op warm; the contract is at most %.0f", c.name, avg, c.max)
		}
	}
}

// TestCompileAllocGuard pins that compiling classifies without proving
// and lists no words. The Property-(1) witness search — 20k–330k
// allocations and 3–40 MB for the three NP-complete languages — runs on
// the first Solver.HardnessWitness call, never inside rspq.NewSolver; a
// compile without it costs at most 962 allocations and 43.6 KB on them.
// The finite (a|b|c){13} has 3¹³ words: listing them costs 2.4M
// allocations and 474 MB, while its language-side bound costs 4.7k
// allocations and 237 KB. Each bound sits 25 % above its measure, so
// the guard fails if the search moves back, compile lists words again
// or grows a new index.
func TestCompileAllocGuard(t *testing.T) {
	const runs = 20
	for _, c := range []struct {
		pattern   string
		maxAllocs float64
		maxBytes  uint64
	}{
		{"a*bc*", 1200, 54_500},
		{"a*bba*", 1200, 54_500},
		{"a*b(cc)*d", 1200, 54_500},
		{"(a|b|c){13}", 5900, 296_000},
	} {
		compile := func() {
			if _, err := rspq.NewSolver(c.pattern); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(runs, compile)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			compile()
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("NewSolver(%q): %.0f allocs, %d B", c.pattern, allocs, bytes)
		if allocs > c.maxAllocs || bytes > c.maxBytes {
			t.Errorf("NewSolver(%q): %.0f allocs, %d B per compile; the bound is %.0f allocs, %d B",
				c.pattern, allocs, bytes, c.maxAllocs, c.maxBytes)
		}
	}
}

// TestSolverAllocGuard pins that a warm Solver query allocates only the
// path it returns: on each tier, Solve and Shortest make at most 3
// allocations (the vertex and label slices and the Path) for a found
// pair and none for a pair without a path. The pinned view, the target
// group of one and the evaluator all stay on the stack, and the scratch
// comes from the pools.
func TestSolverAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	g := graph.Random(400, []byte{'a', 'b', 'c'}, 0.004, 3)
	g.Freeze()
	for _, c := range []struct {
		pattern string
		tier    rspq.Algorithm
	}{
		{"abc|ab", rspq.AlgoFinite},
		{"a*c*", rspq.AlgoSubword},
		{"a*(bb+|())c*", rspq.AlgoSummary},
		{"a*bc*", rspq.AlgoBaseline},
	} {
		s, err := rspq.NewSolver(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ChooseAlgorithm(g); got != c.tier {
			t.Fatalf("%q: tier %v; the case is meant for %v", c.pattern, got, c.tier)
		}
		rng := rand.New(rand.NewSource(11))
		var found, missing [][2]int
		for draw := 0; draw < 1<<18 && (len(found) < 16 || len(missing) < 16); draw++ {
			p := [2]int{rng.Intn(400), rng.Intn(400)}
			if s.Solve(g, p[0], p[1]).Found {
				if len(found) < 16 {
					found = append(found, p)
				}
			} else if len(missing) < 16 {
				missing = append(missing, p)
			}
		}
		if len(found) < 16 || len(missing) < 16 {
			t.Fatalf("%q: drew %d found and %d missing pairs; the guard needs 16 of each", c.pattern, len(found), len(missing))
		}
		for _, q := range []struct {
			name  string
			solve func(*graph.Graph, int, int) rspq.Result
		}{{"Solve", s.Solve}, {"Shortest", s.Shortest}} {
			for _, set := range []struct {
				name  string
				pairs [][2]int
				max   float64
			}{{"found", found, 3}, {"not found", missing, 0}} {
				for i := 0; i < 64; i++ { // warm the pools and all lazy indexes
					q.solve(g, set.pairs[i%len(set.pairs)][0], set.pairs[i%len(set.pairs)][1])
				}
				var avg float64
				for attempt := 0; attempt < 3; attempt++ {
					i := 0
					avg = testing.AllocsPerRun(100, func() {
						p := set.pairs[i%len(set.pairs)]
						i++
						q.solve(g, p[0], p[1])
					})
					if avg <= set.max {
						break
					}
				}
				if avg > set.max {
					t.Errorf("%s on %q (%s) allocates %.2f allocs/op warm; the contract is at most %.0f",
						q.name, c.pattern, set.name, avg, set.max)
				}
			}
		}
	}
}
