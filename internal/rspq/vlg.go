package rspq

import (
	"repro/internal/automaton"
	"repro/internal/graph"
)

// This file implements Section 4.1: RSPQ evaluation on vertex-labeled
// graphs, where the tractable fragment grows from trC to trCvlg. A
// vl-graph (and an evl-graph, over the paired labels) stores the
// paper's db-encoding, in which every edge carries the label of its
// target vertex, and its queries run on that Graph through the one
// evaluator (Solver.SolveVlg, Solver.SolveEvl).
//
// On such an encoding the automaton state after entering a vertex v is
// a function of the previous state and λ(v) alone. For many trCvlg
// languages — including both of the paper's flagship examples, (ab)*
// and a*bc* — the minimal DFA is *live-letter-synchronizing*: each
// letter a has at most one live (reachable ∧ co-reachable) target state
// across all live sources. Then the state at each occurrence of a
// vertex inside an accepting walk is determined by the vertex itself,
// so splicing out a loop preserves the run and the word stays in L:
// RSPQ collapses to RPQ plus loop removal (Theorem 5). The evaluator's
// walk-first step is that algorithm: it takes the shortest walk and
// keeps its loop-free form when it stays in L, and only a walk that
// revisits its source, whose removal changes the run's start, leaves
// the pair to the tier's exact search.

// LetterSynchronizing reports whether every letter has at most one live
// target state in the minimal DFA: {∆(q, a) : q live} ∩ live has size
// ≤ 1 for every a, where live = reachable ∧ co-reachable.
func LetterSynchronizing(min *automaton.DFA) bool {
	reach := min.Reachable()
	co := min.CoReachable()
	live := func(q int) bool { return reach[q] && co[q] }
	for i := range min.Alphabet {
		target := -1
		for q := 0; q < min.NumStates; q++ {
			if !live(q) {
				continue
			}
			t := min.StepIndex(q, i)
			if !live(t) {
				continue
			}
			if target >= 0 && t != target {
				return false
			}
			target = t
		}
	}
	return true
}

// SolveVlg answers RSPQ(L) on the vertex-labeled graph vg: Solve on its
// stored db-encoding (vg.DBGraph()), so calls on one vg share that
// graph's lazily built indexes, and concurrent calls need
// Warm(vg.DBGraph()) first. Out-of-range vertex ids yield
// Result{Found: false}, never a panic.
func (s *Solver) SolveVlg(vg *graph.VGraph, x, y int) Result {
	return s.Solve(vg.DBGraph(), x, y)
}

// SolveEvl answers RSPQ(L) on the vertex-and-edge-labeled graph ev, the
// language stated over the paired labels (graph.PairLabel): Solve on its
// stored db-encoding, under SolveVlg's contract.
func (s *Solver) SolveEvl(ev *graph.EVGraph, x, y int) Result {
	return s.Solve(ev.DBGraph(), x, y)
}
