package rspq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// concurrently runs work(w) for every w below workers, each on its own
// goroutine, and returns when all have.
func concurrently(workers int, work func(w int)) {
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// whileLooping runs each step in a loop of its own goroutine while body
// runs, and returns once body has and every loop has stopped.
func whileLooping(body func(), steps ...func()) {
	stop := make(chan struct{})
	concurrently(len(steps)+1, func(i int) {
		if i == len(steps) {
			body()
			close(stop)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
				steps[i]()
			}
		}
	})
}

// TestConcurrentWarmSolver exercises the documented concurrency
// contract: after Solver.Warm freezes the graph-side indexes, many
// goroutines may query the same solver and graph simultaneously (the
// pooled arenas hand each query its own scratch). Run with -race.
func TestConcurrentWarmSolver(t *testing.T) {
	s := mustSolver(t, "a*(bb+|())c*")
	g := graph.RandomRegular(200, []byte{'a', 'b', 'c'}, 3, 5)
	s.Warm(g)
	concurrently(8, func(w int) {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 200; i++ {
			x, y := rng.Intn(200), rng.Intn(200)
			res := s.Solve(g, x, y)
			if !VerifyWitness(res, g, s.Min, x, y) {
				t.Errorf("invalid witness for %d->%d", x, y)
				return
			}
		}
	})
}
