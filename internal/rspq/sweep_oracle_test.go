package rspq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/psitr"
)

// This file holds the reference the sweep suites (driver_equiv_test.go,
// distbits_equiv_test.go, stop_equiv_test.go) compare the sweep against.
// It shares no code with it: a plain queue BFS with
// no packed words, reading the graph's own adjacency lists rather than a
// pinned view, over an automaton given as a bare list of transitions.

// oracleArc is one labeled transition from -label-> to of the automaton
// the oracle sweeps over.
type oracleArc struct {
	from  int
	label byte
	to    int
}

// dfaOracle lists d's transitions and accepting states.
func dfaOracle(d *automaton.DFA) (arcs []oracleArc, accept []int) {
	for q := 0; q < d.NumStates; q++ {
		if d.Accept[q] {
			accept = append(accept, q)
		}
		for i, label := range d.Alphabet {
			arcs = append(arcs, oracleArc{q, label, d.StepIndex(q, i)})
		}
	}
	return arcs, accept
}

// textbookSweep returns, for every product id v·m + q, the length of a
// shortest walk from v to y whose label takes state q to an accepting
// state, -1 where there is none: the closure is dist >= 0.
func textbookSweep(g *graph.Graph, m int, arcs []oracleArc, accept []int, y int) []int32 {
	dist := make([]int32, g.NumVertices()*m)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for _, q := range accept {
		if id := y*m + q; dist[id] < 0 {
			dist[id] = 0
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range g.InEdges(id / m) {
			for _, arc := range arcs {
				if arc.to != id%m || arc.label != e.Label {
					continue
				}
				if pid := e.From*m + arc.from; dist[pid] < 0 {
					dist[pid] = dist[id] + 1
					queue = append(queue, pid)
				}
			}
		}
	}
	return dist
}

// checkSweepAgainstOracle compares what a sweep left in a — the closure
// in a.co mark-only, the distances with links — id for id against the
// oracle's, and with links requires every successor link to be a valid
// step one level closer to the goal: a live edge of g carrying the
// recorded label, a transition of the automaton under that label, and
// an endpoint at distance exactly one less.
func checkSweepAgainstOracle(t *testing.T, g *graph.Graph, m int, arcs []oracleArc, a *arena, links bool, want []int32, ctx string) {
	t.Helper()
	for id, d := range want {
		if !links {
			if a.co.has(id) != (d >= 0) {
				t.Fatalf("%s: closure differs from the oracle at id %d (got %v, oracle distance %d)", ctx, id, a.co.has(id), d)
			}
			continue
		}
		if got := a.distAt(id); got != d {
			t.Fatalf("%s: dist[%d] = %d, oracle %d", ctx, id, got, d)
		}
		if d <= 0 {
			continue
		}
		succ, label := int(a.parent[id]), a.plabel[id]
		if succ < 0 || succ >= len(want) || want[succ] != d-1 {
			t.Fatalf("%s: link of id %d (distance %d) names %d, which is not one step closer", ctx, id, d, succ)
		}
		if !g.HasEdge(id/m, label, succ/m) {
			t.Fatalf("%s: link of id %d: no edge %d -%c-> %d", ctx, id, id/m, label, succ/m)
		}
		step := false
		for _, arc := range arcs {
			step = step || arc == oracleArc{id % m, label, succ % m}
		}
		if !step {
			t.Fatalf("%s: link of id %d: the automaton has no transition %d -%c-> %d", ctx, id, id%m, label, succ%m)
		}
	}
}

// oracleAnswers computes the Found bit of every pair without any engine
// code: a depth-first search over simple paths of g that tracks the DFA
// state and is pruned by the oracle's closure toward the pair's target.
// Out-of-range pairs answer false.
func oracleAnswers(s *Solver, g *graph.Graph, pairs []Pair) []bool {
	d := s.Min
	m, n := d.NumStates, g.NumVertices()
	arcs, accept := dfaOracle(d)
	closure := map[int][]int32{}
	out := make([]bool, len(pairs))
	for i, pq := range pairs {
		if !validPair(n, pq.X, pq.Y) {
			continue
		}
		co, ok := closure[pq.Y]
		if !ok {
			co = textbookSweep(g, m, arcs, accept, pq.Y)
			closure[pq.Y] = co
		}
		used := make([]bool, n)
		var dfs func(v, q int) bool
		dfs = func(v, q int) bool {
			if v == pq.Y && d.Accept[q] {
				return true
			}
			used[v] = true
			defer func() { used[v] = false }()
			for _, e := range g.OutEdges(v) {
				if t, ok := d.StepOK(q, e.Label); ok && !used[e.To] && co[e.To*m+t] >= 0 && dfs(e.To, t) {
					return true
				}
			}
			return false
		}
		out[i] = co[pq.X*m+d.Start] >= 0 && dfs(pq.X, d.Start)
	}
	return out
}

// randomSequence draws a small Ψtr sequence over {a, b, c}: optional
// prefix and suffix words around one to three middle terms, the first
// of them a gap.
func randomSequence(rng *rand.Rand) *psitr.Sequence {
	word := func(max int) string {
		w := make([]byte, rng.Intn(max+1))
		for i := range w {
			w[i] = "abc"[rng.Intn(3)]
		}
		return string(w)
	}
	seq := &psitr.Sequence{Prefix: word(2), Suffix: word(2)}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		if len(seq.Terms) > 0 && rng.Intn(3) == 0 {
			seq.Terms = append(seq.Terms, psitr.Term{Kind: psitr.OptWord, W: word(1) + "a"})
			continue
		}
		letters := [][]byte{{'a'}, {'b'}, {'a', 'b'}, {'b', 'c'}, {'a', 'b', 'c'}}[rng.Intn(5)]
		seq.Terms = append(seq.Terms, psitr.Term{Kind: psitr.Gap, A: automaton.NewAlphabet(letters...), K: rng.Intn(3)})
	}
	return seq
}

// TestPositionNFASweepEquivalence checks the sweep over the second kind
// of automaton it runs: the position NFA of random Ψtr sequences, plus
// a{70}b*, whose 73 positions take two lanes. On both view kinds the
// summary tier's co-reachability sweep (acquireSeqSearcher) must leave
// the closure of the textbook sweep over the same transitions; and — so
// the transitions themselves are checked against something buildPlan did
// not produce — the vertices that reach y from the start position must be
// exactly those that reach it from the start state of the sequence's
// minimal DFA.
func TestPositionNFASweepEquivalence(t *testing.T) {
	deep := 0 // sweeps that ran at least three levels
	for seed := int64(0); seed < 7; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		seq := randomSequence(rng)
		if seed == 6 {
			seq = &psitr.Sequence{Prefix: strings.Repeat("a", 70), Terms: []psitr.Term{{Kind: psitr.Gap, A: automaton.NewAlphabet('b')}}}
		}
		plan := buildPlan(seq)
		m := plan.pos.NumStates
		if seed == 6 && m != 73 {
			t.Fatalf("a{70}b* has %d positions, want 73", m)
		}
		var arcs []oracleArc
		var accept []int
		for q, es := range plan.pos.Edges {
			for _, e := range es {
				arcs = append(arcs, oracleArc{q, e.Label, e.To})
			}
			if plan.pos.Accept[q] {
				accept = append(accept, q)
			}
		}
		dfa := (&psitr.Expr{Seqs: []*psitr.Sequence{seq}}).MinDFA(automaton.NewAlphabet('a', 'b', 'c'))
		minArcs, minAccept := dfaOracle(dfa)

		g := graph.Random(24, []byte{'a', 'b', 'c'}, 0.13, seed+910)
		g.AddVertex() // isolated
		g.Freeze()
		for _, overlay := range []bool{false, true} {
			if overlay {
				mutateInSteps(g, rng, 2, 3, false)
			}
			for y := 0; y < g.NumVertices(); y += 6 {
				want := textbookSweep(g, m, arcs, accept, y)
				for _, d := range want {
					if d >= 3 {
						deep++
						break
					}
				}
				byDFA := textbookSweep(g, dfa.NumStates, minArcs, minAccept, y)
				for x := 0; x < g.NumVertices(); x++ {
					if (want[x*m+plan.pos.Start] >= 0) != (byDFA[x*dfa.NumStates+dfa.Start] >= 0) {
						t.Fatalf("seq %s y=%d: position NFA and minimal DFA disagree on source %d", seq, y, x)
					}
				}
				vw := g.PinView()
				if vw.Overlay() != overlay {
					t.Fatalf("view overlay = %v, want %v", vw.Overlay(), overlay)
				}
				a := getArena()
				ss := acquireSeqSearcher(vw, a, plan, y, false, nil, sinks{})
				checkSweepAgainstOracle(t, g, m, arcs, a, false, want, fmt.Sprintf("seq %s overlay=%v y=%d", seq, overlay, y))
				ss.release()
				a.release()
			}
		}
	}
	if deep < 12 {
		t.Fatalf("only %d of the sweeps ran three levels or more; the case is close to vacuous", deep)
	}
}

// checkSweepContracts asserts, right after a sweep with links on a —
// run to the end or stopped with its sources answered — the contracts
// that let its consumers pay O(reached) and the next sweep start clean:
// the frontier lists are empty; a reach list that is still valid names
// exactly the stamped ids, each once; and the arena's packed words are
// zero wherever they are not marked hot. It reports whether the list was
// valid.
func checkSweepContracts(t *testing.T, p *product, a *arena, ctx string) bool {
	t.Helper()
	if len(a.lv.fr) != 0 || len(a.lv.nx) != 0 {
		t.Fatalf("%s: the sweep ends with %d frontier and %d next-frontier entries", ctx, len(a.lv.fr), len(a.lv.nx))
	}
	for i, w := range a.w64[a.w64Hot:cap(a.w64)] {
		if w != 0 {
			t.Fatalf("%s: packed word %d is %#x after the sweep but only the first %d are marked hot",
				ctx, a.w64Hot+i, w, a.w64Hot)
		}
	}
	if !a.reachOK {
		return false
	}
	nm := p.n * p.m
	if len(a.reach) > nm/sparseFill {
		t.Fatalf("%s: a valid reach list of %d ids outgrew the sparse threshold %d", ctx, len(a.reach), nm/sparseFill)
	}
	listed := make(map[int32]bool, len(a.reach))
	for _, id := range a.reach {
		if listed[id] {
			t.Fatalf("%s: reach list names id %d twice", ctx, id)
		}
		listed[id] = true
	}
	for id := 0; id < nm; id++ {
		if a.dst.has(id) != listed[int32(id)] {
			t.Fatalf("%s: id %d stamped=%v but listed=%v", ctx, id, a.dst.has(id), listed[int32(id)])
		}
	}
	return true
}

// TestSweepReachListAndCleanWords runs the sweep on one lane (a*c*) and
// on two ((a*b*){33}), on a pass-through and on an overlay view reached
// through successive extensions, of a graph sparse enough that many
// sweeps stay under the sparse threshold, through ONE arena that
// alternates mark-only and distance sweeps. Every sweep must answer like
// the textbook oracle — a word left dirty by one sweep, or zeroed
// wrongly, shows up as a wrong closure or distance in the next — and must
// leave the reach list and the words as checkSweepContracts requires.
// Each width has to see both a kept and an abandoned list, or the case is
// vacuous.
func TestSweepReachListAndCleanWords(t *testing.T) {
	for _, pattern := range []string{"a*c*", "(a*b*){33}"} {
		s, err := NewSolver(pattern)
		if err != nil {
			t.Fatal(err)
		}
		arcs, accept := dfaOracle(s.Min)
		g := graph.RandomRegular(300, []byte{'a', 'b', 'c'}, 3, 17)
		g.AddVertex() // isolated: a sweep that reaches only its own goal states
		g.Freeze()
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(17))
		shared := new(arena)
		kept, dropped := 0, 0

		check := func(view string, wantOverlay bool) {
			for rep := 0; rep < 24; rep++ {
				y := rng.Intn(n)
				if rep == 0 {
					y = n - 1
				}
				want := textbookSweep(g, s.Min.NumStates, arcs, accept, y)
				ctx := fmt.Sprintf("%s %s y=%d", pattern, view, y)
				p := makeProduct(g.PinView(), s.Min, shared)
				if p.vw.Overlay() != wantOverlay {
					t.Fatalf("%s: view overlay = %v", ctx, p.vw.Overlay())
				}
				p.coReach(y, shared) // mark-only: leaves the packed words hot
				checkSweepAgainstOracle(t, g, p.m, arcs, shared, false, want, ctx)
				p.distToGoal(y, shared)
				checkSweepAgainstOracle(t, g, p.m, arcs, shared, true, want, ctx)
				if checkSweepContracts(t, &p, shared, ctx) {
					kept++
				} else {
					dropped++
				}
				p.distToGoal(y, shared) // back to back: starts from the cleaned words
				checkSweepAgainstOracle(t, g, p.m, arcs, shared, true, want, ctx+" (repeat)")
				checkSweepContracts(t, &p, shared, ctx+" (repeat)")
			}
		}
		check("pass-through", false)
		mutateInSteps(g, rng, 3, 4, false)
		check("overlay", true)

		if kept == 0 || dropped == 0 {
			t.Fatalf("%s: %d sweeps kept their reach list, %d abandoned it; the test needs both", pattern, kept, dropped)
		}
	}
}
