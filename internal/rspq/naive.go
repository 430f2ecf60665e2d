package rspq

import (
	"repro/internal/automaton"
	"repro/internal/graph"
)

// Naive is the loop-elimination heuristic that the paper's Example 4 /
// Figure 4 defeats: find a shortest L-labeled walk (classical RPQ
// evaluation), greedily splice out loops, and accept if the surviving
// word still belongs to L.
//
// The heuristic is sound in the YES direction (the returned path is
// checked) but incomplete: on the Figure 4 family and on the LoopTrap
// family it answers NO although loop-free certificates exist or not —
// see experiment E5. For subword-closed languages (trC(0)) it happens
// to be exact, which is the Mendelzon–Wood result; see Subword.
func Naive(g *graph.Graph, d *automaton.DFA, x, y int) Result {
	return pathResult(loopFree(d, ShortestWalk(g, d, x, y))) // nil walk for out-of-range x/y too
}

// loopFree splices the loops out of an L(d)-labeled walk
// (graph.Path.RemoveLoops) and returns the simple path, or nil when the
// walk is nil or the removal left L(d). A walk that lost nothing needs
// no re-check: it is already L-labeled. It is the one loop-removal step:
// Naive, Subword and the walk-first step of the summary and baseline
// tiers (evaluator.fromWalk).
func loopFree(d *automaton.DFA, walk *graph.Path) *graph.Path {
	if walk == nil {
		return nil
	}
	simple := walk.RemoveLoops()
	if simple != walk && !d.Member(simple.Word()) {
		return nil
	}
	return simple
}

// pathResult is the Result of a search that returns its witness, or nil
// when there is none.
func pathResult(p *graph.Path) Result { return Result{Found: p != nil, Path: p} }

// SubwordClosed reports whether the language of the minimal DFA is
// closed under factor deletion — the paper's trC(0), the fragment
// Mendelzon & Wood proved tractable. The characterization on the
// minimal automaton: L_{q2} ⊆ L_{q1} for every pair with q2 reachable
// from q1.
func SubwordClosed(min *automaton.DFA) bool {
	st := automaton.Analyze(min)
	for q1 := 0; q1 < min.NumStates; q1++ {
		for q2 := 0; q2 < min.NumStates; q2++ {
			if q1 == q2 || !st.Reach[q1][q2] {
				continue
			}
			if !automaton.Subset(min.WithStart(q2), min.WithStart(q1)) {
				return false
			}
		}
	}
	return true
}

// Subword answers RSPQ(L) for subword-closed languages: a shortest
// L-labeled walk (ShortestWalk) can always be made simple by loop removal
// (removing a loop deletes a factor of the word, and the class is
// closed under factor deletion), so RSPQ coincides with RPQ. The
// returned path is a *shortest* simple L-labeled path: the shortest
// walk is no longer than any simple path, and loop removal only
// shrinks it.
func Subword(g *graph.Graph, d *automaton.DFA, x, y int) Result {
	// loopFree's nil on an L-labeled walk cannot happen for genuinely
	// subword-closed languages; it guards against misuse.
	return pathResult(loopFree(d, ShortestWalk(g, d, x, y)))
}
