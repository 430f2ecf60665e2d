package rspq

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// ColorCodingOptions tunes the Theorem 7 FPT algorithm.
type ColorCodingOptions struct {
	// Trials overrides the number of random colorings; 0 derives it
	// from the failure probability.
	Trials int
	// FailureProb is the target one-sided error for NO answers
	// (default 0.01). YES answers are always certified by a path.
	FailureProb float64
	// Seed drives the deterministic random colorings.
	Seed int64
}

// ColorCoding decides k-RSPQ: is there a simple L-labeled path with at
// most k edges from x to y? It implements Theorem 7 via Alon–Yuster–
// Zwick color coding: repeatedly color vertices with k+1 colors and run
// the dynamic program f(v, q, S) over colorful paths, in time
// O(2^{O(k)}·|A_L|·|G|·log|G|) overall.
//
// A Found=true answer carries a verified witness path. Found=false is
// correct with probability ≥ 1-FailureProb (one-sided Monte Carlo).
func ColorCoding(g *graph.Graph, d *automaton.DFA, x, y, k int, opts ColorCodingOptions) Result {
	if k < 0 || !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	if x == y {
		if d.Member("") {
			return Result{Found: true, Path: graph.PathAt(x)}
		}
		return Result{}
	}
	colors := k + 1 // vertices on a path with ≤ k edges
	if colors > 24 {
		// The subset DP is 2^{k+1}; beyond this the memory is
		// unreasonable and callers should use Baseline.
		return Baseline(g, d, x, y, nil)
	}
	failure := opts.FailureProb
	if failure <= 0 || failure >= 1 {
		failure = 0.01
	}
	trials := opts.Trials
	if trials <= 0 {
		// Per-trial success ≥ (k+1)!/(k+1)^{k+1} ≈ e^{-(k+1)}.
		perTrial := math.Exp(-float64(colors))
		trials = int(math.Ceil(math.Log(failure) / math.Log(1-perTrial)))
		if trials < 1 {
			trials = 1
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), d, a)
	color := make([]int, g.NumVertices())
	// reach and parent are reused across trials: one allocation per
	// query instead of one per coloring.
	reach := make([]bool, (1<<colors)*p.n*p.m)
	parent := make(map[int]ccParent, 1024)
	for t := 0; t < trials; t++ {
		for v := range color {
			color[v] = rng.Intn(colors)
		}
		if t > 0 {
			clear(reach)
			clear(parent)
		}
		if path := colorfulSearch(&p, d, x, y, k, color, colors, reach, parent); path != nil {
			return Result{Found: true, Path: path}
		}
	}
	return Result{}
}

// ccParent records how a color-coding DP state was first reached.
type ccParent struct {
	fromV, fromQ int
	label        byte
}

// colorfulSearch runs the color-coding dynamic program for one coloring
// and reconstructs a path on success. State: (color set S, vertex v,
// automaton state q) is reachable iff a colorful path from x to v uses
// exactly the colors S and drives A_L to q. Transitions walk the CSR's
// label buckets, stepping the DFA once per (state, label) instead of
// once per edge.
func colorfulSearch(p *product, d *automaton.DFA, x, y, k int, color []int, colors int, reach []bool, parent map[int]ccParent) *graph.Path {
	n := p.n
	m := p.m
	idx := func(S, v, q int) int { return (S*n+v)*m + q }

	startSet := 1 << color[x]
	reach[idx(startSet, x, d.Start)] = true

	L := p.vw.NumLabels()
	// Process subsets in increasing popcount order = increasing integer
	// order works because transitions only add bits.
	for S := 1; S < (1 << colors); S++ {
		for v := 0; v < n; v++ {
			for q := 0; q < m; q++ {
				if !reach[idx(S, v, q)] {
					continue
				}
				if popcount(S)-1 >= k {
					continue // path already has k edges
				}
				for lid := 0; lid < L; lid++ {
					di := p.lmap[lid]
					if di < 0 {
						continue
					}
					t := d.StepIndex(q, int(di))
					label := p.vw.Label(lid)
					for _, to32 := range p.vw.OutWithID(v, lid) {
						to := int(to32)
						c := color[to]
						if S&(1<<c) != 0 {
							continue
						}
						ni := idx(S|1<<c, to, t)
						if !reach[ni] {
							reach[ni] = true
							parent[ni] = ccParent{fromV: v, fromQ: q, label: label}
						}
					}
				}
			}
		}
	}

	// Accepting states at y with any color set.
	for S := 1; S < (1 << colors); S++ {
		for q := 0; q < m; q++ {
			if !d.Accept[q] || !reach[idx(S, y, q)] {
				continue
			}
			// Reconstruct backwards.
			var vs []int
			var ls []byte
			curS, curV, curQ := S, y, q
			for {
				vs = append(vs, curV)
				if curV == x && curQ == d.Start && curS == 1<<color[x] {
					break
				}
				rec, ok := parent[idx(curS, curV, curQ)]
				if !ok {
					return nil // x itself may repeat as an intermediate start state; give up
				}
				ls = append(ls, rec.label)
				curS &^= 1 << color[curV]
				curV, curQ = rec.fromV, rec.fromQ
			}
			slices.Reverse(vs)
			slices.Reverse(ls)
			path := &graph.Path{Vertices: vs, Labels: ls}
			if path.IsSimple() && d.Member(path.Word()) {
				return path
			}
		}
	}
	return nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
