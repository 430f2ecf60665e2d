package rspq

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/psitr"
)

// PsitrExpr aliases the fragment type so that callers of this package
// do not need to import internal/psitr separately.
type PsitrExpr = psitr.Expr

// Algorithm identifies which evaluation strategy answered a query.
type Algorithm int

// Evaluation strategies.
const (
	AlgoAuto     Algorithm = iota // dispatcher decides
	AlgoFinite                    // AC⁰ tier: finite-language search
	AlgoSubword                   // Mendelzon–Wood trC(0) fast path
	AlgoSummary                   // Ψtr summary solver (Lemmas 12–16)
	AlgoDAG                       // acyclic input, forced only: RPQ walk is simple
	AlgoBaseline                  // exact exponential backtracking
	AlgoWalk                      // plain RPQ (arbitrary paths) — not RSPQ
	AlgoNaive                     // unsound loop elimination (foil)
)

func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoFinite:
		return "finite"
	case AlgoSubword:
		return "subword"
	case AlgoSummary:
		return "summary"
	case AlgoDAG:
		return "dag"
	case AlgoBaseline:
		return "baseline"
	case AlgoWalk:
		return "walk"
	case AlgoNaive:
		return "naive"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Solver bundles a compiled language with its trichotomy classification,
// the tier that answers it and (when available) its Ψtr normal form.
//
// A Solver is built once and queried many times, and it is immutable
// after construction: the tier is fixed when the language compiles, as
// the trichotomy fixes it by the language alone, and everything else
// that depends only on the language — the minimal DFA, its packed
// predecessor table, the Ψtr evaluation plans, and for a finite
// language the bound of its AC⁰-tier search (bounded deepening from x,
// pruned by each state's distance to acceptance) — is precomputed or
// memoized, so steady-state queries run against frozen indexes and
// pooled scratch without per-call allocation (beyond the witness path
// itself).
type Solver struct {
	Regex          *automaton.Regex
	Min            *automaton.DFA // minimal complete DFA
	Classification core.Classification
	Expr           *psitr.Expr // nil when the regex has no recognized Ψtr form
	SubwordClosed  bool

	// tier is the tier that answers the language (ChooseAlgorithm),
	// decided once by NewSolverFromRegex.
	tier Algorithm

	// finite bounds the AC⁰ tier's deepening for a finite language:
	// each state's distance to acceptance and the longest word, fixed at
	// compile time; nil for infinite languages.
	finite *finiteBound

	// live marks the states of Min that reach acceptance: the NP and
	// finite tiers' search skips a label into any other before walking
	// its neighbours.
	live []bool

	// id is a process-unique language identifier, part of every
	// cross-query cache key (graph epoch, language id, target) so
	// tables from different languages can never collide even if a
	// cache is shared between engines.
	id uint64

	// plans holds one evaluation plan per Ψtr sequence of Expr, built
	// on the first summary-tier query and owned by the Solver, so they
	// are collected with it.
	plansOnce sync.Once
	plans     []*seqPlan

	// witness is the Property-(1) hardness witness, searched on the
	// first HardnessWitness call: no query reads it, so Compile does
	// not pay for it.
	witnessOnce sync.Once
	witness     *core.HardnessWitness
}

// solverIDs hands out process-unique language ids.
var solverIDs atomic.Uint64

// LangID returns the solver's process-unique language identifier.
func (s *Solver) LangID() uint64 { return s.id }

// NewSolver compiles a regex pattern into a ready-to-query solver.
func NewSolver(pattern string) (*Solver, error) {
	r, err := automaton.ParseRegex(pattern)
	if err != nil {
		return nil, err
	}
	return NewSolverFromRegex(r)
}

// NewSolverFromRegex builds a solver from a parsed regular expression.
func NewSolverFromRegex(r *automaton.Regex) (*Solver, error) {
	min := automaton.CompileRegexToMinDFA(r, nil)
	s := &Solver{
		Regex:          r,
		Min:            min,
		Classification: core.Classify(min, core.EdgeLabeled, nil),
		SubwordClosed:  SubwordClosed(min),
		live:           min.CoReachable(),
		id:             solverIDs.Add(1),
	}
	if e, err := psitr.FromRegex(r); err == nil {
		s.Expr = e
	}
	// Prebuild the language-side indexes so first queries — and
	// concurrent ones — never race on lazy construction.
	s.Min.Packed()
	if s.Classification.Finite {
		s.finite = newFiniteBound(s.Min)
	}
	switch {
	case s.Classification.Finite:
		s.tier = AlgoFinite
	case s.SubwordClosed:
		s.tier = AlgoSubword
	case s.Classification.Tractable && s.Expr != nil:
		s.tier = AlgoSummary
	default:
		s.tier = AlgoBaseline
	}
	return s, nil
}

// HardnessWitness returns the verified Property-(1) witness (Lemma 4)
// that drives the Lemma 5 NP-hardness reduction, or nil when the
// language is not NP-complete. The first call runs the search — tens of
// milliseconds for Figure 1's a*b(cc)*d — and later calls return the
// same witness; it is safe for concurrent use.
func (s *Solver) HardnessWitness() *core.HardnessWitness {
	if s.Classification.Class != core.NPComplete {
		return nil
	}
	s.witnessOnce.Do(func() {
		s.witness, _ = core.ExtractHardnessWitness(s.Min, nil)
	})
	return s.witness
}

// seqPlans returns the evaluation plans of Expr's sequences, in
// sequence order, building them on first use.
func (s *Solver) seqPlans() []*seqPlan {
	s.plansOnce.Do(func() { s.plans = buildPlans(s.Expr) })
	return s.plans
}

// Warm pins g's view (graph.PinView) as a query does. Calling Warm once
// after graph construction makes subsequent concurrent queries on g
// safe and allocation-free at steady state; it is optional for
// single-goroutine use, where the first query pins. The view carries
// the epoch it was pinned at, which anything keying cached tables by
// epoch — Engine above all — reads, so the two cannot disagree. Nothing
// else needs warming: the tier is the language's, fixed at compile time.
// Warming a mutated graph does NOT force a refreeze: small pending
// deltas are pinned as a read overlay on the last base (graph.View), so
// queries keep flowing while compaction is deferred.
func (s *Solver) Warm(g *graph.Graph) {
	g.PinView()
}

// TierFor reports the tier that answers SolveWith(g, x, y, algo).
// AlgoAuto is the language's tier (ChooseAlgorithm). A forced tier that
// does not apply — the finite search on an infinite language, the walk
// reduction on a language that is not subword-closed, the summary
// solver without a Ψtr form, the RPQ collapse on a cyclic graph (the
// one case that reads g: an O(V+E) IsAcyclic per call) — is the
// baseline. Any other algo answers as itself.
func (s *Solver) TierFor(g *graph.Graph, algo Algorithm) Algorithm {
	switch {
	case algo == AlgoAuto:
		return s.tier
	case algo == AlgoFinite && !s.Classification.Finite,
		algo == AlgoSubword && !s.SubwordClosed,
		algo == AlgoSummary && s.Expr == nil,
		algo == AlgoDAG && !g.IsAcyclic():
		return AlgoBaseline
	}
	return algo
}

// ChooseAlgorithm reports how Solve answers a query: the tier
// NewSolverFromRegex fixed, which depends on the language alone, as the
// trichotomy does — finite, then subword-closed, then a tractable (trC)
// language with a Ψtr form, and the baseline otherwise. Acyclic inputs
// (Theorem 8) need no tier of their own: every walk on a DAG is simple,
// so the walk-first step of the summary and baseline tiers answers
// every source without a search. g is unread; the parameter stays for
// callers such as the bench ladder.
func (s *Solver) ChooseAlgorithm(g *graph.Graph) Algorithm {
	return s.tier
}

// Solve answers RSPQ(L): is there a simple L-labeled path from x to y
// in g? The dispatcher follows the trichotomy (ChooseAlgorithm): finite
// languages use the AC⁰-tier search, subword-closed languages the
// Mendelzon–Wood walk reduction, tractable (trC) languages with a Ψtr
// form the polynomial summary solver, everything else the exact
// exponential baseline (the problem is NP-complete there, so exponential
// worst-case time is expected). The summary and baseline tiers search
// only when the shortest L-labeled walk leaves the answer open: it
// repeats a vertex, and removing its loops leaves L — never on a DAG,
// where every walk is simple. It runs on the evaluator of BatchSolver
// and Engine as a target group of one, so all three return the same
// witness.
func (s *Solver) Solve(g *graph.Graph, x, y int) Result {
	return s.SolveWith(g, x, y, AlgoAuto)
}

// SolveWith forces a specific algorithm; AlgoAuto dispatches. A forced
// tier that does not apply falls back to the exact baseline (TierFor);
// AlgoWalk and AlgoNaive, which are not RSPQ tiers, run ShortestWalk
// and Naive. Out-of-range vertex ids yield Result{Found: false}, never
// a panic.
func (s *Solver) SolveWith(g *graph.Graph, x, y int, algo Algorithm) Result {
	return s.solveWith(g, x, y, algo, false)
}

// Shortest returns a shortest simple L-labeled path from x to y on
// Solve's tier. On the summary and baseline tiers a simple shortest
// walk is the answer, and otherwise the search goes on past its first
// witness; the other tiers return a shortest one anyway.
func (s *Solver) Shortest(g *graph.Graph, x, y int) Result {
	return s.solveWith(g, x, y, AlgoAuto, true)
}

// solveWith pins g, resolves algo's tier once and answers (x, y) over
// the view on an evaluator with no caches. The pin comes first, so a
// forced AlgoDAG's IsAcyclic reads the pinned view.
func (s *Solver) solveWith(g *graph.Graph, x, y int, algo Algorithm, shortest bool) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	switch algo {
	case AlgoWalk:
		return pathResult(ShortestWalk(g, s.Min, x, y))
	case AlgoNaive:
		return Naive(g, s.Min, x, y)
	}
	vw := g.PinView()
	ev := evaluator{s: s, tier: s.TierFor(g, algo)}
	return ev.solveOne(vw, x, y, false, shortest, nil)
}
