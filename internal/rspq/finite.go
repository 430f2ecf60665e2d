package rspq

import (
	"repro/internal/automaton"
	"repro/internal/graph"
)

// Finite answers RSPQ(L) for finite languages — the AC⁰ tier of
// Theorem 2, which holds because no path is longer than L's longest
// word. It is bounded deepening from x, pruned by each state's
// distance to acceptance: the baseline's iterative deepening (bsearch)
// against a finiteBound, capped at the longest word. So the result is a
// shortest simple L-labeled path, the one BaselineShortest returns.
//
// Warm solvers compute the bound once (see Solver); this entry point
// re-derives it from the DFA for standalone callers.
func Finite(g *graph.Graph, d *automaton.DFA, x, y int) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	min := d.Minimize()
	if !min.IsFinite() {
		return Baseline(g, d, x, y, nil) // guards against misuse
	}
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), min, a)
	fb := newFiniteBound(min)
	return baselineShortestWith(&p, a, fb, min.CoReachable(), x, y, fb.depth, nil)
}

// finiteBound is what the AC⁰ tier's deepening is pruned and capped by,
// and it depends only on the language: dist[q] is the length of a
// shortest word from state q to acceptance (-1 from a dead state), and
// depth is the length of L's longest word. As distances it ignores the
// vertex, so one bound serves every target.
type finiteBound struct {
	dist  []int32
	depth int
}

func (f *finiteBound) distAt(_, q int) int32 { return f.dist[q] }

// newFiniteBound computes the bound of the finite language recognized
// by the minimal DFA min. Its live states form a DAG (a live cycle would
// pump infinitely many words), so one memoized depth-first pass from the
// start gives each state its shortest and longest distance to
// acceptance; the recursion is no deeper than the longest word. The
// empty language leaves the start at -1, which no deepening passes.
func newFiniteBound(min *automaton.DFA) *finiteBound {
	live := min.CoReachable()
	f := &finiteBound{dist: make([]int32, min.NumStates)}
	long := make([]int32, min.NumStates) // -1 until visited
	for q := range long {
		f.dist[q], long[q] = -1, -1
	}
	var visit func(q int)
	visit = func(q int) {
		short, longest := int32(-1), int32(-1)
		if min.Accept[q] {
			short, longest = 0, 0
		}
		for i := range min.Alphabet {
			t := min.StepIndex(q, i)
			if !live[t] {
				continue
			}
			if long[t] < 0 {
				visit(t)
			}
			if short < 0 || f.dist[t]+1 < short {
				short = f.dist[t] + 1
			}
			longest = max(longest, long[t]+1)
		}
		f.dist[q], long[q] = short, longest
	}
	if live[min.Start] {
		visit(min.Start)
	}
	f.depth = int(long[min.Start])
	return f
}

// DAG answers RSPQ(L) on acyclic graphs, where every walk is simple and
// the problem collapses to classical RPQ evaluation — the immediate
// case of Theorem 8 (DAGs have directed treewidth 0). The returned
// path is a shortest simple L-labeled path. It returns ok=false when
// the graph is not acyclic.
func DAG(g *graph.Graph, d *automaton.DFA, x, y int) (Result, bool) {
	if !g.IsAcyclic() {
		return Result{}, false
	}
	return pathResult(ShortestWalk(g, d, x, y)), true // nil for out-of-range x/y too
}
