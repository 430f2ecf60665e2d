package rspq

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file pins the stop rule of the product sweeps (goalProbe): a
// sweep given the sources of a target group stops at the admission that
// answers the last of them, and what it leaves must answer those sources
// exactly as the sweep run to the end does — the same distances and the
// same walks.

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

// walker is p after a sweep with links, nil after a mark-only one: the
// product checkSweepAgainstOracle reads walks over.
func walker(p *product, links bool) *product {
	if links {
		return p
	}
	return nil
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

// checkStoppedSweep holds what a sweep that stopped at level D (its
// farthest source's distance) left in a against the oracle's distances:
// every id of a level below D-1 is visited; of level D-1 a subset is;
// beyond it only the sources are. With links (p non-nil) every visited id
// sits at its exact distance, and the walk read off from it is valid. It
// reports whether level D-1 was left incomplete: the round that
// discovers it was cut.
func checkStoppedSweep(t *testing.T, g *graph.Graph, m, start int, a *arena, p *product, y int, want []int32, xs []int, level int32, ctx string) (cut bool) {
	t.Helper()
	source := map[int]bool{}
	for _, x := range xs {
		source[x*m+start] = true
	}
	for id, d := range want {
		v, q := id/m, id%m
		got := a.co.at(v, q)
		switch {
		case source[id] || d >= 0 && d < level-1:
			if !got {
				t.Fatalf("%s: id %d at distance %d is not visited", ctx, id, d)
			}
		case d == level-1:
			cut = cut || !got
		case got:
			t.Fatalf("%s: id %d at distance %d is visited past level %d", ctx, id, d, level-1)
		}
		if !got || p == nil {
			continue
		}
		if dist := a.distAt(v, q); dist != d {
			t.Fatalf("%s: dist[%d] = %d, oracle %d", ctx, id, dist, d)
		}
		checkWalkBitValid(t, p.d, g, p.walkFrom(a, v, q), v, q, y, d)
	}
	return cut
}

// TestStoppedSweepEquivalence compares stopped sweeps against sweeps run
// to the end, on one lane and on two ((a*b*){33}), a pass-through and an
// extended-overlay view, single and multi-source groups — the target
// itself, an unreachable source and a duplicated source among them —
// mark-only and with links, all through ONE arena.
// A group whose sources are all reachable must stop at its farthest
// source's distance D, having run the rounds before it: D-1, the last of
// them cut at the admission that answered the last source
// (checkStoppedSweep: levels below D-1 as the oracle's, level D-1 a
// subset of it, nothing beyond it but the sources). The walk each
// source reads off the stopped sweep must equal the one it reads off the
// sweep run to the end, and the tier's answer passes VerifyWitness. A
// group with an unreachable source runs to the end. After every sweep the
// frontier lists are empty and the words clean, and the next sweep run to
// the end on the same arena must equal the oracle (a reused arena ≡ a
// fresh one). Each pattern must cut some round, or the case is vacuous.
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
		l := newLedger(g)
		g.Freeze()
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(41))
		shared := new(arena)
		stops := 0 // stopped sweeps that ran two rounds or more and kept their dirty list
		cuts := 0  // stopped sweeps that left the level of their last round incomplete

		check := func(view string, wantOverlay bool) {
			for rep := 0; rep < 8; rep++ {
				y := rng.Intn(n)
				if rep == 0 {
					y = n - 1
				}
				want := textbookSweep(l, m, arcs, accept, y)
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
						if stopped {
							if checkStoppedSweep(t, g, m, start, shared, walker(&p, links), y, want, xs, level, ctx) {
								cuts++
							}
						} else {
							checkSweepAgainstOracle(t, g, m, shared, walker(&p, links), y, want, ctx)
						}
						if checkSweepContracts(t, shared, ctx) && links && stopped && level > 2 {
							stops++
						}
						var walks []*graph.Path
						if links {
							for _, x := range xs {
								d := want[x*m+start]
								walk := p.walkFrom(shared, x, start)
								walks = append(walks, walk)
								if d < 0 {
									if walk != nil {
										t.Fatalf("%s: a walk from unreachable source %d", ctx, x)
									}
									continue
								}
								checkWalkBitValid(t, s.Min, g, walk, x, start, y, d)
								res := ev.answerGoal(&goalView{p: p, ds: shared}, x)
								if !res.Found || !VerifyWitness(res, g, s.Min, x, y) {
									t.Fatalf("%s: source %d answers %v (found=%v)", ctx, x, res.Path, res.Found)
								}
							}
						}
						// The same arena, reused for a sweep run to the end.
						p.sweep(y, shared, links, nil)
						checkSweepAgainstOracle(t, g, m, shared, walker(&p, links), y, want, ctx+" (reused)")
						checkSweepContracts(t, shared, ctx+" (reused)")
						for i, x := range xs {
							if links && !samePath(walks[i], p.walkFrom(shared, x, start)) {
								t.Fatalf("%s: source %d walks %v after the stopped sweep, %v after the full one", ctx, x, walks[i], p.walkFrom(shared, x, start))
							}
						}
					}
				}
			}
		}
		check("pass-through", false)
		mutateInSteps(l, rng, 3, 4, tc.algo == AlgoDAG)
		check("overlay", true)

		if stops == 0 {
			t.Fatalf("%s: no sweep stopped past level 2 with its reach list kept; the case is vacuous", tc.pattern)
		}
		if cuts == 0 {
			t.Fatalf("%s: no stopped sweep cut its last round; the case is vacuous", tc.pattern)
		}
	}
}

// samePath reports whether two walks (nil for none) take the same
// vertices and labels.
func samePath(a, b *graph.Path) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Vertices, b.Vertices) && slices.Equal(a.Labels, b.Labels)
}

// TestStoppedSweepWorkGuard pins where the stop inside a round saves. On
// a dense graph (4,000 vertices, out-degree 40) under
// a*b*a*b*a*b*a*b*a*b*, 64 single-source mark-only sweeps on fresh
// targets — what Engine.Exists runs on a miss — must turn on at most a
// quarter of the states a stop at the round boundary visits: every state
// below the source's distance D. It is a count, not a timer. The levels
// come from the same target's sweep run to the end, which the oracle
// suites pin; and each stopped sweep's trace must count exactly the
// states it left visited (QueryTrace.StatesReached).
func TestStoppedSweepWorkGuard(t *testing.T) {
	s, err := NewSolver("a*b*a*b*a*b*a*b*a*b*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomOutRegular(4000, []byte{'a', 'b'}, 40, 7)
	g.Freeze()
	n, start := g.NumVertices(), s.Min.Start
	a := new(arena)
	p := makeProduct(g.PinView(), s.Min, a)
	rng := rand.New(rand.NewSource(7))
	reached, boundary := 0, 0
	for i, y := range rng.Perm(n)[:64] {
		p.distToGoal(y, a)
		x := rng.Intn(n)
		for a.distAt(x, start) < 0 {
			x = rng.Intn(n)
		}
		D := a.distAt(x, start)
		below := 0
		a.co.each(func(id int) {
			if a.dist[id] < D {
				below++
			}
		})
		kt := &kernelTrace{}
		p.sinks = sinks{tr: kt}
		stopped := p.sweep(y, a, false, []int{x})
		p.sinks = sinks{}
		visited := 0
		for _, w := range a.co.w {
			visited += bits.OnesCount64(w)
		}
		if !stopped || kt.statesReached != visited {
			t.Fatalf("sweep %d (y=%d, x=%d at %d): stopped=%v, the trace counts %d states, %d are visited", i, y, x, D, stopped, kt.statesReached, visited)
		}
		reached += visited
		boundary += below
	}
	if 4*reached > boundary {
		t.Fatalf("64 stopped sweeps turned on %d states; a stop at the round boundary visits %d, and the bound is a quarter of that", reached, boundary)
	}
	t.Logf("64 stopped sweeps turned on %d states against %d at the round boundary (%.3f)", reached, boundary, float64(reached)/float64(boundary))
}
