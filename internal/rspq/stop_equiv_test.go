package rspq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// This file pins the stop rule of the product sweeps (goalProbe): a
// sweep given the sources of a target group stops before the round that
// would discover the level of its farthest source, and what it leaves
// must answer those sources exactly as the sweep run to the end does.

// stopGroups draws the source groups of one target from the oracle's
// distances: the target itself, a deepest single source, an unreachable
// single source, a multi-source group (the target among them when it
// reaches itself, one source listed twice), and the same group with an
// unreachable source added. Groups the graph cannot supply are left out.
func stopGroups(n, m, start, y int, want []int32, rng *rand.Rand) [][]int {
	var reach, unreach []int
	deep := -1
	for x := 0; x < n; x++ {
		d := want[x*m+start]
		if d < 0 {
			unreach = append(unreach, x)
			continue
		}
		reach = append(reach, x)
		if deep < 0 || d > want[deep*m+start] {
			deep = x
		}
	}
	groups := [][]int{{y}}
	if deep >= 0 {
		groups = append(groups, []int{deep})
		multi := []int{deep}
		if want[y*m+start] >= 0 {
			multi = append(multi, y)
		}
		for i := 0; i < 3; i++ {
			multi = append(multi, reach[rng.Intn(len(reach))])
		}
		multi = append(multi, multi[len(multi)-1])
		groups = append(groups, multi)
		if len(unreach) > 0 {
			groups = append(groups, append([]int{unreach[rng.Intn(len(unreach))]}, multi...))
		}
	}
	if len(unreach) > 0 {
		groups = append(groups, []int{unreach[rng.Intn(len(unreach))]})
	}
	return groups
}

// stopLevel returns the level a sweep answering group xs stops at — its
// farthest source's distance, at least 1 (the first probe runs before
// round 1) — or 0 when some source is unreachable and the sweep must run
// to the end.
func stopLevel(xs []int, m, start int, want []int32) int32 {
	level := int32(1)
	for _, x := range xs {
		d := want[x*m+start]
		if d < 0 {
			return 0
		}
		level = max(level, d)
	}
	return level
}

// TestStoppedSweepEquivalence compares stopped sweeps against sweeps run
// to the end, on one lane and on two ((a*b*){33}), a pass-through and an
// extended-overlay view, single and multi-source groups — the target
// itself, an unreachable source and a duplicated source among them —
// mark-only and with links, all through ONE arena.
// A group whose sources are all reachable must stop before the round
// that would discover its farthest source, having run exactly the rounds
// before it; what the sweep leaves must be the oracle's sweep truncated
// there — every id of a lower level, at its distance and with a valid
// link, and the sources — so each source reads the exhausted distance's
// walk off the links, and the tier's answer passes VerifyWitness. A group
// with an unreachable source runs to the end. After every sweep the
// frontier lists are empty and the words clean, and the next sweep run
// to the end on the same arena must equal the oracle (a reused arena ≡ a
// fresh one).
func TestStoppedSweepEquivalence(t *testing.T) {
	cases := []struct {
		pattern string
		algo    Algorithm
		gen     func() *graph.Graph
	}{
		{"a*c*", AlgoSubword, func() *graph.Graph { return graph.RandomRegular(240, []byte{'a', 'b', 'c'}, 3, 41) }},
		{"(a|b)*a(a|b)*", AlgoDAG, func() *graph.Graph { return graph.LayeredDAG(12, 6, 2, []byte{'a', 'b'}, 41) }},
		{"(a*b*){33}", AlgoSubword, func() *graph.Graph { return graph.Random(240, []byte{'a', 'b', 'c'}, 0.006, 43) }},
	}
	for _, tc := range cases {
		s, err := NewSolver(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		ev := &evaluator{s: s}
		m, start := s.Min.NumStates, s.Min.Start
		arcs, accept := dfaOracle(s.Min)
		g := tc.gen()
		g.AddVertex() // isolated: an unreachable source, and a target only it reaches
		g.Freeze()
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(41))
		shared := new(arena)
		stops := 0 // stopped sweeps that ran two rounds or more and kept their reach list

		check := func(view string, wantOverlay bool) {
			for rep := 0; rep < 8; rep++ {
				y := rng.Intn(n)
				if rep == 0 {
					y = n - 1
				}
				want := textbookSweep(g, m, arcs, accept, y)
				groups := stopGroups(n, m, start, y, want, rng)
				p := makeProduct(g.PinView(), s.Min, shared)
				if p.vw.Overlay() != wantOverlay {
					t.Fatalf("%s: view overlay = %v", view, p.vw.Overlay())
				}
				for gi, xs := range groups {
					level := stopLevel(xs, m, start, want)
					for _, links := range []bool{false, true} {
						ctx := fmt.Sprintf("%s %s y=%d group %d %v links=%v", tc.pattern, view, y, gi, xs, links)
						kt := &kernelTrace{}
						p.sinks = sinks{tr: kt}
						stopped := p.sweep(y, shared, links, xs)
						p.sinks = sinks{}
						if stopped != (level > 0) || kt.stoppedAt != int(level) {
							t.Fatalf("%s: stopped=%v at level %d; want stopped=%v at %d", ctx, stopped, kt.stoppedAt, level > 0, level)
						}
						if ran := len(kt.rounds); stopped && ran != int(level)-1 {
							t.Fatalf("%s: the sweep ran %d rounds before stopping at level %d", ctx, ran, level)
						}
						truncated := want
						if stopped {
							truncated = make([]int32, len(want))
							for id, d := range want {
								truncated[id] = -1
								if d >= 0 && d < level {
									truncated[id] = d
								}
							}
							for _, x := range xs {
								truncated[x*m+start] = want[x*m+start]
							}
						}
						checkSweepAgainstOracle(t, g, m, arcs, shared, links, truncated, ctx)
						if links {
							if checkSweepContracts(t, &p, shared, ctx) && stopped && level > 2 {
								stops++
							}
							for _, x := range xs {
								d := want[x*m+start]
								walk := p.sharedWalkFrom(shared, x)
								if d < 0 {
									if walk != nil {
										t.Fatalf("%s: a walk from unreachable source %d", ctx, x)
									}
									continue
								}
								checkWalkBitValid(t, s, g, walk, x, y, d)
								res := ev.answerGoal(goalView{p: p, a: shared}, tc.algo, x)
								if !res.Found || !VerifyWitness(res, g, s.Min, x, y) {
									t.Fatalf("%s: source %d answers %v (found=%v)", ctx, x, res.Path, res.Found)
								}
							}
						}
						// The same arena, reused for a sweep run to the end.
						p.sweep(y, shared, links, nil)
						checkSweepAgainstOracle(t, g, m, arcs, shared, links, want, ctx+" (reused)")
						if links {
							checkSweepContracts(t, &p, shared, ctx+" (reused)")
						}
					}
				}
			}
		}
		check("pass-through", false)
		mutateInSteps(g, rng, 3, 4, tc.algo == AlgoDAG)
		check("overlay", true)

		if stops == 0 {
			t.Fatalf("%s: no sweep stopped past level 2 with its reach list kept; the case is vacuous", tc.pattern)
		}
	}
}
