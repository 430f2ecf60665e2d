package rspq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/psitr"
)

// This file holds the reference the sweep suites (driver_equiv_test.go,
// shard_equiv_test.go, distbits_equiv_test.go) compare the two round
// drivers against. It shares no code with them: a plain queue BFS with
// no partition and no packed words, reading the
// graph's own adjacency lists rather than a pinned view, over an
// automaton given as a bare list of transitions.

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

// TestPositionNFASweepEquivalence checks the id-list driver on the
// second relation it serves: the position-NFA arcs of random Ψtr
// sequences. For every kernel mode × K × view kind the closure, and with
// links the distances and successor links, must equal the textbook
// sweep over the same arcs; and — so the arcs themselves are checked
// against something buildPlan did not produce — the vertices that reach
// y from the start position must be exactly those that reach it from the
// start state of the sequence's minimal DFA.
func TestPositionNFASweepEquivalence(t *testing.T) {
	exchangeWorkersOverride.Store(4)
	defer exchangeWorkersOverride.Store(0)
	deep := 0 // sweeps that ran at least three levels
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		seq := randomSequence(rng)
		plan := buildPlan(seq)
		m := plan.posCount
		var arcs []oracleArc
		for q, row := range plan.arcs.rev {
			for _, ar := range row {
				arcs = append(arcs, oracleArc{int(ar.st), ar.label, q})
			}
		}
		accept := make([]int, len(plan.arcs.accepts))
		for i, q := range plan.arcs.accepts {
			accept[i] = int(q)
		}
		dfa := (&psitr.Expr{Seqs: []*psitr.Sequence{seq}}).MinDFA(automaton.NewAlphabet('a', 'b', 'c'))
		dfaArcs, dfaAccept := dfaOracle(dfa)

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
				byDFA := textbookSweep(g, dfa.NumStates, dfaArcs, dfaAccept, y)
				for x := 0; x < g.NumVertices(); x++ {
					if (want[x*m+plan.startPos] >= 0) != (byDFA[x*dfa.NumStates+dfa.Start] >= 0) {
						t.Fatalf("seq %s y=%d: position NFA and minimal DFA disagree on source %d", seq, y, x)
					}
				}
				for _, mode := range kernelModes() {
					setKernelMode(t, mode)
					for _, k := range []int{0, 1, 3, 8} {
						g.SetShards(k)
						vw := g.PinView()
						if vw.Overlay() != overlay {
							t.Fatalf("K=%d: view overlay = %v, want %v", k, vw.Overlay(), overlay)
						}
						env := makeSweepEnv(vw, m, sinks{})
						a := getArena()
						for _, links := range []bool{false, true} {
							env.sweepArcs(a, &plan.arcs, y, links, goalProbe{})
							ctx := fmt.Sprintf("seq %s overlay=%v mode=%s K=%d y=%d links=%v", seq, overlay, mode.name, k, y, links)
							checkSweepAgainstOracle(t, g, m, arcs, a, links, want, ctx)
						}
						a.release()
					}
				}
			}
		}
		g.SetShards(0)
	}
	if deep < 12 {
		t.Fatalf("only %d of the sweeps ran three levels or more; the case is close to vacuous", deep)
	}
}
