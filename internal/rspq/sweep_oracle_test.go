package rspq

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/psitr"
)

// This file holds the reference the sweep suites (driver_equiv_test.go,
// distbits_equiv_test.go, stop_equiv_test.go) compare the sweep against.
// It shares no code with it: a plain queue BFS with no packed words,
// reading the edge list the test keeps beside the graph (edgeLedger)
// rather than a pinned view, over an automaton given as a bare list of
// transitions.

// edgeLedger is a graph with the adjacency lists a test keeps beside it:
// every mutation goes through the ledger to both, so the oracles read
// the test's own lists and never the graph's, which after a write to
// the frozen graph are rebuilt from the base and the delta under test.
type edgeLedger struct {
	g       *graph.Graph
	out, in [][]graph.Edge
}

// newLedger seeds the lists from g's edges as built, before any write
// to the frozen graph.
func newLedger(g *graph.Graph) *edgeLedger {
	l := &edgeLedger{g: g, out: make([][]graph.Edge, g.NumVertices()), in: make([][]graph.Edge, g.NumVertices())}
	for _, e := range g.Edges() {
		l.out[e.From] = append(l.out[e.From], e)
		l.in[e.To] = append(l.in[e.To], e)
	}
	return l
}

func (l *edgeLedger) has(e graph.Edge) bool { return slices.Contains(l.out[e.From], e) }

func (l *edgeLedger) add(from int, label byte, to int) {
	l.g.AddEdge(from, label, to)
	if e := (graph.Edge{From: from, Label: label, To: to}); !l.has(e) {
		l.out[from] = append(l.out[from], e)
		l.in[to] = append(l.in[to], e)
	}
}

func (l *edgeLedger) remove(from int, label byte, to int) bool {
	e := graph.Edge{From: from, Label: label, To: to}
	had := l.has(e)
	if had {
		l.out[from] = slices.DeleteFunc(l.out[from], func(x graph.Edge) bool { return x == e })
		l.in[to] = slices.DeleteFunc(l.in[to], func(x graph.Edge) bool { return x == e })
	}
	if l.g.RemoveEdge(from, label, to) != had {
		panic(fmt.Sprintf("RemoveEdge%v disagrees with the ledger, which has it = %v", e, had))
	}
	return had
}

// flip removes the edge when present and adds it otherwise.
func (l *edgeLedger) flip(from int, label byte, to int) {
	if !l.remove(from, label, to) {
		l.add(from, label, to)
	}
}

func (l *edgeLedger) addVertex() int {
	l.out, l.in = append(l.out, nil), append(l.in, nil)
	return l.g.AddVertex()
}

// rebuilt is the ledger's edge set in a fresh graph that never saw the
// delta machinery, so its answers come from a cold full freeze.
func (l *edgeLedger) rebuilt() *graph.Graph {
	o := graph.New(len(l.out))
	for _, row := range l.out {
		for _, e := range row {
			o.AddEdge(e.From, e.Label, e.To)
		}
	}
	return o
}

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
func textbookSweep(l *edgeLedger, m int, arcs []oracleArc, accept []int, y int) []int32 {
	dist := make([]int32, len(l.in)*m)
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
		for _, e := range l.in[id/m] {
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

// checkSweepAgainstOracle compares what a sweep over m automaton states
// left in a — the closure in a.co, and after a sweep with links over
// product p (nil for a mark-only sweep) the distances — id for id
// against the oracle's. With links, from every reached (x, q) the walk
// read off the distances must be a genuine walk of g to y into an
// accepting state, at the oracle's exact distance (checkWalkBitValid).
func checkSweepAgainstOracle(t *testing.T, g *graph.Graph, m int, a *arena, p *product, y int, want []int32, ctx string) {
	t.Helper()
	for id, d := range want {
		x, q := id/m, id%m
		if a.co.at(x, q) != (d >= 0) {
			t.Fatalf("%s: closure differs from the oracle at id %d (got %v, oracle distance %d)", ctx, id, a.co.at(x, q), d)
		}
		if p == nil {
			continue
		}
		if got := a.distAt(x, q); got != d {
			t.Fatalf("%s: dist[%d] = %d, oracle %d", ctx, id, got, d)
		}
		if d >= 0 {
			checkWalkBitValid(t, p.d, g, p.walkFrom(a, x, q), x, q, y, d)
		}
	}
}

// oracleAnswers computes the Found bit of every pair without any engine
// code: a depth-first search over simple paths of the ledger's graph
// that tracks the DFA state and is pruned by the oracle's closure toward
// the pair's target. Out-of-range pairs answer false.
func oracleAnswers(s *Solver, l *edgeLedger, pairs []Pair) []bool {
	d := s.Min
	m, n := d.NumStates, len(l.out)
	arcs, accept := dfaOracle(d)
	closure := map[int][]int32{}
	out := make([]bool, len(pairs))
	for i, pq := range pairs {
		if !validPair(n, pq.X, pq.Y) {
			continue
		}
		co, ok := closure[pq.Y]
		if !ok {
			co = textbookSweep(l, m, arcs, accept, pq.Y)
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
			for _, e := range l.out[v] {
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
		l := newLedger(g)
		g.Freeze()
		for _, overlay := range []bool{false, true} {
			if overlay {
				mutateInSteps(l, rng, 2, 3, false)
			}
			for y := 0; y < g.NumVertices(); y += 6 {
				want := textbookSweep(l, m, arcs, accept, y)
				for _, d := range want {
					if d >= 3 {
						deep++
						break
					}
				}
				byDFA := textbookSweep(l, dfa.NumStates, minArcs, minAccept, y)
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
				checkSweepAgainstOracle(t, g, m, a, nil, y, want, fmt.Sprintf("seq %s overlay=%v y=%d", seq, overlay, y))
				ss.release()
				a.release()
			}
		}
	}
	if deep < 12 {
		t.Fatalf("only %d of the sweeps ran three levels or more; the case is close to vacuous", deep)
	}
}

// checkSweepContracts asserts, right after a sweep on a — run to the end
// or stopped with its sources answered — the contracts that let its
// consumers pay O(reached) and the next sweep start clean: the frontier
// lists are empty; the frontier words are zero, and so is every word past
// the visited ones; and a dirty list that is still valid names exactly
// the non-zero visited words, each once. It reports whether the list was
// valid.
func checkSweepContracts(t *testing.T, a *arena, ctx string) bool {
	t.Helper()
	if len(a.lv.fr) != 0 || len(a.lv.nx) != 0 {
		t.Fatalf("%s: the sweep ends with %d frontier and %d next-frontier entries", ctx, len(a.lv.fr), len(a.lv.nx))
	}
	vis := a.co.w
	if len(vis) != a.w64Hot || &vis[0] != &a.w64[0] {
		t.Fatalf("%s: a.co holds %d words, but the visited third is the first %d of w64", ctx, len(vis), a.w64Hot)
	}
	for i, w := range a.w64[a.w64Hot:cap(a.w64)] {
		if w != 0 {
			t.Fatalf("%s: packed word %d is %#x after the sweep; only the %d visited words may be non-zero",
				ctx, a.w64Hot+i, w, a.w64Hot)
		}
	}
	if !a.dirtyOK {
		return false
	}
	if len(a.dirty) > len(vis)/sparseFill {
		t.Fatalf("%s: a valid dirty list of %d words outgrew the sparse threshold %d", ctx, len(a.dirty), len(vis)/sparseFill)
	}
	listed := make(map[int32]bool, len(a.dirty))
	for _, kv := range a.dirty {
		if listed[kv] {
			t.Fatalf("%s: dirty list names word %d twice", ctx, kv)
		}
		listed[kv] = true
	}
	for kv, w := range vis {
		if (w != 0) != listed[int32(kv)] {
			t.Fatalf("%s: visited word %d is %#x but listed=%v", ctx, kv, w, listed[int32(kv)])
		}
	}
	return true
}

// TestSweepDirtyListAndCleanWords runs the sweep on one lane (a*c*) and
// on two ((a*b*){33}), on a pass-through and on an overlay view reached
// through successive extensions, of a graph sparse enough that many
// sweeps stay under the sparse threshold, through ONE arena that
// alternates mark-only and distance sweeps. Every sweep must answer like
// the textbook oracle — a word the next sweep fails to clean, or cleans
// wrongly, shows up as a wrong closure or distance — and must leave the
// dirty list and the words as checkSweepContracts requires. Each width
// has to see both a kept and an abandoned list, or the case is vacuous.
func TestSweepDirtyListAndCleanWords(t *testing.T) {
	for _, pattern := range []string{"a*c*", "(a*b*){33}"} {
		s, err := NewSolver(pattern)
		if err != nil {
			t.Fatal(err)
		}
		arcs, accept := dfaOracle(s.Min)
		g := graph.RandomRegular(300, []byte{'a', 'b', 'c'}, 3, 17)
		g.AddVertex() // isolated: a sweep that reaches only its own goal states
		l := newLedger(g)
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
				want := textbookSweep(l, s.Min.NumStates, arcs, accept, y)
				ctx := fmt.Sprintf("%s %s y=%d", pattern, view, y)
				p := makeProduct(g.PinView(), s.Min, shared)
				if p.vw.Overlay() != wantOverlay {
					t.Fatalf("%s: view overlay = %v", ctx, p.vw.Overlay())
				}
				p.sweep(y, shared, false, nil)
				checkSweepAgainstOracle(t, g, p.m, shared, nil, y, want, ctx)
				checkSweepContracts(t, shared, ctx+" (mark-only)")
				p.distToGoal(y, shared)
				checkSweepAgainstOracle(t, g, p.m, shared, &p, y, want, ctx)
				if checkSweepContracts(t, shared, ctx) {
					kept++
				} else {
					dropped++
				}
				p.distToGoal(y, shared) // back to back: starts by cleaning its own words
				checkSweepAgainstOracle(t, g, p.m, shared, &p, y, want, ctx+" (repeat)")
				checkSweepContracts(t, shared, ctx+" (repeat)")
			}
		}
		check("pass-through", false)
		mutateInSteps(l, rng, 3, 4, false)
		check("overlay", true)

		if kept == 0 || dropped == 0 {
			t.Fatalf("%s: %d sweeps kept their dirty list, %d abandoned it; the test needs both", pattern, kept, dropped)
		}
	}
}
