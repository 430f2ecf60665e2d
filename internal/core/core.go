// Package core implements the paper's primary contribution: the decision
// procedures for the tractable fragment trC and its vertex-labeled
// (trCvlg) and vertex-edge-labeled (trCevlg) variants, the trichotomy
// classification of RSPQ(L) into AC⁰ / NL-complete / NP-complete
// (Theorem 2, 5, 6), extraction of the Property-(1) hardness witnesses
// used by the NP-hardness reduction (Lemmas 4–5), and the recognition
// procedures for the three language representations of Theorem 3.
//
// All procedures operate on the canonical minimal complete DFA A_L of
// the language, exactly as the paper's definitions do.
package core

import (
	"fmt"

	"repro/internal/automaton"
)

// Model selects the graph-database model a classification refers to
// (Section 4.1 of the paper).
type Model int

// Models of database graphs.
const (
	// EdgeLabeled is the standard db-graph model.
	EdgeLabeled Model = iota
	// VertexLabeled is the vl-graph model: the tractable fragment grows
	// to trCvlg because loop words are compared only when they end with
	// the same (vertex) label.
	VertexLabeled
	// VertexEdgeLabeled is the evl-graph model over a product alphabet
	// Σ_V × Σ_E; two letters are ≡evl-equivalent when they share the
	// vertex component.
	VertexEdgeLabeled
)

func (m Model) String() string {
	switch m {
	case EdgeLabeled:
		return "edge-labeled"
	case VertexLabeled:
		return "vertex-labeled"
	case VertexEdgeLabeled:
		return "vertex-edge-labeled"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Class is the data-complexity class of RSPQ(L) per the trichotomy.
type Class int

// The three complexity tiers of Theorem 2.
const (
	AC0 Class = iota
	NLComplete
	NPComplete
)

func (c Class) String() string {
	switch c {
	case AC0:
		return "AC0"
	case NLComplete:
		return "NL-complete"
	case NPComplete:
		return "NP-complete"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classification is the result of classifying a language.
type Classification struct {
	Model  Model
	Class  Class
	Finite bool
	// Tractable reports membership in the model's tractable fragment
	// (trC / trCvlg / trCevlg). Finite languages are always tractable.
	Tractable bool
	// M is the size of the minimal complete DFA (the paper's M = |Q_L|).
	M int
	// FailPair records the automaton states (q1, q2) at which the
	// Lemma 6 inclusion Loop(q2)^M·L_{q2} ⊆ L_{q1} failed, and a word of
	// the difference, when Tractable is false.
	FailPair *InclusionFailure
}

// InclusionFailure pinpoints a failed Lemma 6 inclusion.
type InclusionFailure struct {
	Q1, Q2 int
	// Letter is the loop-terminating letter class used in the vlg/evlg
	// variants; 0 for the plain trC test.
	Letter byte
	// Word ∈ Loop(q2)^M · L_{q2} \ L_{q1}.
	Word string
}

// Classify runs the trichotomy of Theorem 2 (resp. 5, 6) on the language
// of d under the given model. d need not be minimal; it is minimized
// first. For VertexEdgeLabeled, letters are grouped by sameVertex; pass
// nil for the other models.
//
// Classify decides the tier and stops: the Lemma 6 inclusion test is
// polynomial in M, while the Property-(1) witness that proves an NP
// verdict (ExtractHardnessWitness) is a search that only the Lemma 5
// reduction reads, so callers that want it run it themselves.
func Classify(d *automaton.DFA, model Model, sameVertex func(a, b byte) bool) Classification {
	min := d.Minimize()
	out := Classification{Model: model, M: min.NumStates}
	out.Finite = min.IsFinite()

	var classOf func(a, b byte) bool
	switch model {
	case EdgeLabeled:
		classOf = nil // unrestricted Lemma 6
	case VertexLabeled:
		classOf = func(a, b byte) bool { return a == b }
	case VertexEdgeLabeled:
		if sameVertex == nil {
			panic("core: VertexEdgeLabeled classification requires sameVertex")
		}
		classOf = sameVertex
	}

	ok, fail := trCCheck(min, classOf)
	out.Tractable = ok
	out.FailPair = fail
	switch {
	case out.Finite:
		out.Class = AC0
	case ok:
		out.Class = NLComplete
	default:
		out.Class = NPComplete
	}
	return out
}

// InTrC reports whether the language of d belongs to trC (Lemma 6 test).
func InTrC(d *automaton.DFA) bool {
	ok, _ := trCCheck(d.Minimize(), nil)
	return ok
}

// InTrCvlg reports whether the language of d belongs to trCvlg
// (Definition 5; loop words must end with the same letter).
func InTrCvlg(d *automaton.DFA) bool {
	ok, _ := trCCheck(d.Minimize(), func(a, b byte) bool { return a == b })
	return ok
}
