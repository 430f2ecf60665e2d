package rspq

import (
	"testing"

	"repro/internal/graph"
)

// TestDistBitsAllocGuard pins the warm-path allocation contract of the
// bit-parallel distance kernel (distbits.go): once the arena pool and
// the witness log have grown to the workload's high-water mark, the
// sweep plus replay must not allocate — the log appends into grow-only
// arena slices and the replay writes into the same
// dst/dist/parent/plabel arrays the generic kernel uses. The one
// tolerated allocation per run is the product struct itself, which
// escape analysis moves to the heap in every distToGoal caller because
// the sharded kernels capture it in closures — a pre-existing cost of
// all kernel forms, unchanged by this one (ExistsWalk's forward search
// never calls them, hence its stricter 0-alloc guard). Same shape as
// the repo-level TestExistsWalkAllocGuard; a few attempts tolerate
// one-off pool refills after a GC.
func TestDistBitsAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard only holds on plain builds")
	}
	s, err := NewSolver("a*b(a|b|c)*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
	s.Warm(g)
	if s.Min.Packed() == nil {
		t.Fatal("pattern must pack into a word")
	}
	targets := []int{3, 57, 200, 399}

	sweep := func() {
		a := getArena()
		p := makeProduct(g.PinView(), s.Min, a)
		for _, y := range targets {
			p.distToGoal(y, a)
		}
		a.release()
	}
	for i := 0; i < 64; i++ { // warm the pool, the packed table, the log
		sweep()
	}
	var avg float64
	for attempt := 0; attempt < 3; attempt++ {
		avg = testing.AllocsPerRun(200, sweep)
		if avg <= 1 { // the heap-escaping product struct, nothing else
			return
		}
	}
	t.Fatalf("warm bit-parallel distToGoal allocates %.2f allocs/op; the bound is 1 (the product struct)", avg)
}
