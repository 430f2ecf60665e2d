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

// TestCompileAllocGuard pins that compiling classifies without proving:
// the Property-(1) witness search — 20k–330k allocations and 3–40 MB
// for these NP-complete languages — runs on the first
// Solver.HardnessWitness call, never inside rspq.NewSolver. A compile
// without it costs at most 962 allocations and 43.6 KB on these three;
// the bounds sit 25 % above that, so the guard fails if the search moves
// back or compile grows a new index.
func TestCompileAllocGuard(t *testing.T) {
	const maxAllocs, maxBytes, runs = 1200, 54_500, 20
	for _, pattern := range []string{"a*bc*", "a*bba*", "a*b(cc)*d"} {
		compile := func() {
			if _, err := rspq.NewSolver(pattern); err != nil {
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
		t.Logf("NewSolver(%q): %.0f allocs, %d B", pattern, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("NewSolver(%q): %.0f allocs, %d B per compile; the bound is %d allocs, %d B",
				pattern, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
