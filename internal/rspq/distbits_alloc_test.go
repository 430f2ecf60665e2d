package rspq

import (
	"testing"

	"repro/internal/graph"
)

// TestDistBitsAllocGuard pins the warm-path allocation contract of the
// sweep with links (sweep.go): once the arena has grown to the
// workload's high-water mark, a sweep must not allocate — the frontier
// lists and the words live in the arena, the running sweep's state on
// the stack, and distances are written into the arena's dist array. The sweep copies what it needs of the
// product into that state, so not even the product escapes. The rows are
// one lane and two ((a*b*){33}), each with sweeps run to the end and
// sweeps that stop once a deep source of the target is answered (the
// probe list lives in the arena).
// Same shape as the repo-level TestExistsWalkAllocGuard; a few attempts
// tolerate one-off pool refills after a GC.
func TestDistBitsAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	for _, pattern := range []string{"a*b(a|b|c)*", "(a*b*){33}"} {
		s := mustSolver(t, pattern)
		g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
		targets := []int{57, 200, 311, 399}

		// sources[i] is the deepest source of targets[i]: its sweep stops
		// before the last level.
		sources := make([][]int, len(targets))
		a := new(arena)
		p := makeProduct(g.PinView(), s.Min, a)
		for i, y := range targets {
			p.distToGoal(y, a)
			deep, far := -1, int32(1)
			for x := 0; x < p.n; x++ {
				if d := a.distAt(x, s.Min.Start); d > far {
					deep, far = x, d
				}
			}
			if deep < 0 || !p.sweep(y, a, true, []int{deep}) {
				t.Fatalf("%s target %d: no source whose sweep stops past level 1", pattern, y)
			}
			sources[i] = []int{deep}
		}

		for _, stop := range []bool{false, true} {
			sweep := func() {
				a := getArena()
				p := makeProduct(g.PinView(), s.Min, a)
				for i, y := range targets {
					if stop {
						p.sweep(y, a, true, sources[i])
					} else {
						p.distToGoal(y, a)
					}
				}
				a.release()
			}
			for i := 0; i < 64; i++ { // warm the pool, the packed table, the lists
				sweep()
			}
			avg := testing.AllocsPerRun(200, sweep)
			for attempt := 0; attempt < 2 && avg > 0; attempt++ {
				avg = testing.AllocsPerRun(200, sweep)
			}
			if avg > 0 {
				t.Fatalf("%s stopped=%v: warm distToGoal allocates %.2f allocs/op; the bound is 0", pattern, stop, avg)
			}
		}
	}
}
