package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// removeLoopsOracle is greedy loop elimination as first written: find
// the earliest repeated vertex, splice out the loop back to its first
// occurrence, and rescan from the start. It allocates a map per loop and
// costs O(loops · |walk|); RemoveLoops must return exactly its result.
func removeLoopsOracle(p *Path) *Path {
	vs := append([]int{}, p.Vertices...)
	ls := append([]byte{}, p.Labels...)
	for {
		first := map[int]int{}
		from, to := -1, -1
		for i, v := range vs {
			if j, ok := first[v]; ok {
				from, to = j, i
				break
			}
			first[v] = i
		}
		if from < 0 {
			return &Path{Vertices: vs, Labels: ls}
		}
		vs = append(vs[:from], vs[to:]...)
		ls = append(ls[:from], ls[to:]...)
	}
}

// randomWalk draws a walk of length steps over vertices [0, n) with
// labels from "abc": few vertices make many loops, many make few.
func randomWalk(rng *rand.Rand, n, steps int) *Path {
	p := &Path{Vertices: []int{rng.Intn(n)}}
	for i := 0; i < steps; i++ {
		p.Vertices = append(p.Vertices, rng.Intn(n))
		p.Labels = append(p.Labels, "abc"[rng.Intn(3)])
	}
	return p
}

// TestRemoveLoopsMatchesGreedy holds the one-pass RemoveLoops against
// the rescanning oracle on random walks of every shape, short ones
// (the quadratic simplicity scan) and long ones alike, and pins that a
// simple walk comes back as the receiver.
func TestRemoveLoopsMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loops := 0
	for i := 0; i < 5000; i++ {
		n, steps := 1+rng.Intn(60), rng.Intn(80)
		p := randomWalk(rng, n, steps)
		before := slices.Clone(p.Vertices)
		got, want := p.RemoveLoops(), removeLoopsOracle(p)
		if !slices.Equal(p.Vertices, before) {
			t.Fatalf("walk %d: RemoveLoops modified its receiver", i)
		}
		if !slices.Equal(got.Vertices, want.Vertices) || got.Word() != want.Word() {
			t.Fatalf("walk %d %v:\n got %v\nwant %v", i, p, got, want)
		}
		if !got.IsSimple() || len(got.Labels) != len(got.Vertices)-1 {
			t.Fatalf("walk %d: result %v is not a simple path", i, got)
		}
		if (got == p) != p.IsSimple() {
			t.Fatalf("walk %d: returned the receiver = %v, simple = %v", i, got == p, p.IsSimple())
		}
		if got != p {
			loops++
		}
	}
	if loops < 1000 {
		t.Fatalf("only %d of 5000 walks had loops", loops)
	}
}

// TestRemoveLoopsAllocs pins RemoveLoops' cost on a walk with loops:
// the result's vertex and label slices and nothing else, at any length
// (the Path header stays on this caller's stack). A simple short walk
// allocates nothing.
func TestRemoveLoopsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, steps := range []int{5, 31, 200, 5000} {
		p := randomWalk(rng, steps/2+1, steps)
		if p.IsSimple() {
			t.Fatalf("%d steps: the walk has no loop", steps)
		}
		kept := 0
		if avg := testing.AllocsPerRun(20, func() { kept = p.RemoveLoops().Len() }); avg > 2 {
			t.Errorf("%d steps: RemoveLoops allocates %.0f times, want ≤ 2", steps, avg)
		}
		if kept >= steps {
			t.Fatalf("%d steps: %d kept", steps, kept)
		}
	}
	s := &Path{Vertices: []int{0, 1, 2, 3}, Labels: []byte("abc")}
	if avg := testing.AllocsPerRun(20, func() { _ = s.RemoveLoops() }); avg != 0 {
		t.Errorf("a simple walk allocates %.0f times, want 0", avg)
	}
}
