package rspq

import (
	"testing"

	"repro/internal/graph"
)

// TestDistBitsAllocGuard pins the warm-path allocation contract of the
// packed sweep with links (bitbfs.go): once the arena has grown to the
// workload's high-water mark, a sweep must not allocate — the exchange
// lists, the running sweep's state and the words all live in the arena,
// links and distances are written into the same dst/dist/parent/plabel
// arrays the id-list sweep uses, and with one worker the phases are
// direct calls (no goroutine, closure or wait group). The sweep copies
// what it needs of the product into that state, so not even the product
// escapes. The rows are the inline single shard (K=0 and K=1 are one
// configuration) and K=4 on one worker, the inline multi-shard phases,
// each for sweeps run to the end and for sweeps that stop once a deep
// source of the target is answered (the probe list lives in the arena).
// Same shape as the repo-level TestExistsWalkAllocGuard; a few attempts
// tolerate one-off pool refills after a GC.
func TestDistBitsAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	s, err := NewSolver("a*b(a|b|c)*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
	if s.Min.Packed() == nil {
		t.Fatal("pattern must pack into a word")
	}
	exchangeWorkersOverride.Store(1)
	defer exchangeWorkersOverride.Store(0)
	defer g.SetShards(0)
	targets := []int{3, 57, 200, 399}

	// sources[i] is the deepest source of targets[i]: its sweep stops
	// before the last level.
	sources := make([][]int, len(targets))
	a := new(arena)
	p := makeProduct(g.PinView(), s.Min, a)
	for i, y := range targets {
		p.distToGoal(y, a)
		deep, far := -1, int32(1)
		for x := 0; x < p.n; x++ {
			if d := a.distAt(p.id(x, s.Min.Start)); d > far {
				deep, far = x, d
			}
		}
		if deep < 0 || !p.sweep(y, a, true, []int{deep}) {
			t.Fatalf("target %d: no source whose sweep stops past level 1", y)
		}
		sources[i] = []int{deep}
	}

	for _, k := range []int{0, 1, 4} {
		g.SetShards(k)
		s.Warm(g)
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
				t.Fatalf("K=%d stopped=%v: warm packed distToGoal allocates %.2f allocs/op; the bound is 0", k, stop, avg)
			}
		}
	}
}
