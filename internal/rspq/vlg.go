package rspq

import (
	"repro/internal/automaton"
	"repro/internal/graph"
)

// This file implements Section 4.1: RSPQ evaluation on vertex-labeled
// graphs, where the tractable fragment grows from trC to trCvlg.
//
// The implementation insight: on a vl-graph the label of every edge is
// the label of its target vertex, so along any accepting run the
// automaton state after entering a vertex v is a function of the
// previous state and λ(v) alone. For many trCvlg languages — including
// both of the paper's flagship examples, (ab)* and a*bc* — the minimal
// DFA is *live-letter-synchronizing*: each letter a has at most one
// live (reachable ∧ co-reachable) target state across all live sources.
// Then the state at each occurrence of a vertex inside an accepting
// walk is determined by the vertex itself, so splicing out a loop
// preserves the run and the word stays in L: RSPQ collapses to RPQ plus
// loop removal, giving the polynomial bound of Theorem 5 directly.

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

// VlgSolve answers RSPQ(L) on a vertex-labeled graph. Dispatch
// (vlgDispatch):
//
//  1. finite L → word-by-word search on the db-encoding (AC⁰ tier);
//  2. letter-synchronizing minimal DFA → product walk + loop removal
//     (polynomial; covers (ab)*, a*bc* and the other trCvlg\trC
//     examples of the paper);
//  3. L ∈ trC with a Ψtr form (expr non-nil) → the summary solver on
//     the db-encoding;
//  4. otherwise → exact exponential baseline.
//
// The db-encoding is the paper's: edge labels are target-vertex labels.
// expr may be nil when no Ψtr form is available.
func VlgSolve(vg *graph.VGraph, d *automaton.DFA, expr *PsitrExpr, x, y int) Result {
	if !validPair(vg.NumVertices(), x, y) {
		return Result{}
	}
	return vlgDispatch(vg.ToDBGraph(), d, expr, x, y)
}

// EvlSolve answers RSPQ(L) on a vertex-and-edge-labeled graph via the
// paper's product-alphabet encoding (Section 4.1): the query language is
// stated over the paired labels (graph.PairLabel). Dispatch is
// VlgSolve's: the encoding also satisfies "edge label determined by
// target vertex" only per vertex-label component, so the
// letter-synchronizing fast path still applies when the minimal DFA
// allows it.
func EvlSolve(ev *graph.EVGraph, d *automaton.DFA, expr *PsitrExpr, x, y int) Result {
	if !validPair(ev.NumVertices(), x, y) {
		return Result{}
	}
	return vlgDispatch(ev.ToDBGraph(), d, expr, x, y)
}

// vlgDispatch is the four-way dispatch of VlgSolve and EvlSolve over the
// db-encoding g.
func vlgDispatch(g *graph.Graph, d *automaton.DFA, expr *PsitrExpr, x, y int) Result {
	min := d.Minimize()
	switch {
	case min.IsFinite():
		return Finite(g, min, x, y)
	case LetterSynchronizing(min):
		return vlgWalkSolve(g, min, x, y)
	case expr != nil:
		return SolvePsitr(g, expr, x, y, false)
	default:
		return Baseline(g, min, x, y, nil)
	}
}

// vlgWalkSolve is the polynomial algorithm for letter-synchronizing
// languages on vl-graph encodings: a shortest L-labeled walk always
// collapses to a simple L-labeled path by loop removal.
func vlgWalkSolve(g *graph.Graph, min *automaton.DFA, x, y int) Result {
	walk := ShortestWalk(g, min, x, y)
	if walk == nil {
		return Result{}
	}
	if simple := loopFree(min, walk); simple != nil {
		return Result{Found: true, Path: simple}
	}
	// Unreachable for genuinely letter-synchronizing automata on
	// vl-encodings; guard against misuse with the exact baseline.
	return Baseline(g, min, x, y, nil)
}
