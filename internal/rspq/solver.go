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
	AlgoAuto        Algorithm = iota // dispatcher decides
	AlgoFinite                       // AC⁰ tier: finite-language search
	AlgoSubword                      // Mendelzon–Wood trC(0) fast path
	AlgoSummary                      // Ψtr summary solver (Lemmas 12–16)
	AlgoDAG                          // acyclic input: RPQ walk is simple
	AlgoBaseline                     // exact exponential backtracking
	AlgoWalk                         // plain RPQ (arbitrary paths) — not RSPQ
	AlgoNaive                        // unsound loop elimination (foil)
	AlgoColorCoding                  // k-RSPQ FPT (Theorem 7)
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
	case AlgoColorCoding:
		return "colorcoding"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Solver bundles a compiled language with its trichotomy classification
// and (when available) its Ψtr normal form, and dispatches queries to
// the best algorithm.
//
// A Solver is built once and queried many times; everything that
// depends only on the language — the minimal DFA, its
// reverse-transition index, the sorted word list of a finite language,
// the Ψtr evaluation plans — is precomputed or memoized, so
// steady-state queries run against frozen indexes and pooled scratch
// without per-call allocation (beyond the witness path itself).
type Solver struct {
	Regex          *automaton.Regex
	Min            *automaton.DFA // minimal complete DFA
	Classification core.Classification
	Expr           *psitr.Expr // nil when the regex has no recognized Ψtr form
	SubwordClosed  bool

	// words is the (length, lex)-sorted word list of a finite language,
	// precomputed so the AC⁰-tier search skips re-minimization and
	// re-enumeration per query; nil for infinite languages.
	words []string

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
		id:             solverIDs.Add(1),
	}
	if e, err := psitr.FromRegex(r); err == nil {
		s.Expr = e
	}
	// Prebuild the language-side indexes so first queries — and
	// concurrent ones — never race on lazy construction.
	s.Min.Rev()
	s.Min.Packed()
	if s.Classification.Finite {
		s.words = finiteWords(s.Min)
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

// Warm precomputes every graph-side index a query on g would build
// lazily (the pinned snapshot view and dispatch caches). Calling Warm
// once after graph construction makes subsequent concurrent queries on
// g safe and allocation-free at steady state; it is optional for
// single-goroutine use, where the first query warms the caches.
//
// Warm pins exactly like a query does (pin below): the view, the
// alphabet and — for languages that dispatch on it — the acyclicity
// verdict all belong to one generation, so a mutation interleaving with
// the warming can never leave a stale snapshot paired with a newer epoch
// (or vice versa), which matters to anything — Engine above all — that
// keys cached tables by epoch. Warming a mutated graph does NOT force a
// refreeze: small pending deltas are pinned as a read overlay on the
// last base (graph.View), so queries keep flowing while compaction is
// deferred.
func (s *Solver) Warm(g *graph.Graph) {
	s.pin(g)
}

// pin pins g's current view together with the epoch it was pinned under
// and the tier the language dispatches to on it, retrying if a mutation
// interleaves so the three belong to one generation. It is the one place
// BatchSolver, Engine and Warm obtain a dispatch verdict, each under the
// synchronization it already holds for the lazy pin.
func (s *Solver) pin(g *graph.Graph) *pinned {
	for {
		vw, epoch := g.SnapshotView()
		algo := s.ChooseAlgorithm(g)
		if g.Epoch() == epoch {
			return &pinned{vw: vw, epoch: epoch, algo: algo}
		}
	}
}

// ChooseAlgorithm reports how Solve would answer a query on g. The rule
// is language-first: a finite or subword-closed language dispatches
// without consulting the graph at all — the verdict cannot change how
// the query is answered (the DAG and subword tiers are one backward
// product sweep, and loop removal is the identity on a DAG walk), and
// computing it on a graph that just lost an edge costs an O(V+E) recheck
// that streaming point queries should not pay. Only the remaining
// languages read the graph's acyclicity verdict, where an acyclic input
// collapses RSPQ to RPQ and spares them the summary or exponential
// search.
func (s *Solver) ChooseAlgorithm(g *graph.Graph) Algorithm {
	switch {
	case s.Classification.Finite:
		return AlgoFinite
	case s.SubwordClosed:
		return AlgoSubword
	case g.IsAcyclic():
		return AlgoDAG
	case s.Classification.Tractable && s.Expr != nil:
		return AlgoSummary
	default:
		return AlgoBaseline
	}
}

// Solve answers RSPQ(L): is there a simple L-labeled path from x to y
// in g? The dispatcher follows the trichotomy (ChooseAlgorithm): finite
// languages use the AC⁰-tier search, subword-closed languages the
// Mendelzon–Wood walk reduction, every other language the RPQ collapse
// on DAG inputs, tractable (trC) languages with a Ψtr form the
// polynomial summary solver, everything else the exact exponential
// baseline (the problem is NP-complete there, so exponential worst-case
// time is expected).
func (s *Solver) Solve(g *graph.Graph, x, y int) Result {
	return s.SolveWith(g, x, y, AlgoAuto)
}

// SolveWith forces a specific algorithm; AlgoAuto dispatches.
// Out-of-range vertex ids yield Result{Found: false}, never a panic.
func (s *Solver) SolveWith(g *graph.Graph, x, y int, algo Algorithm) Result {
	return s.solveWith(g, x, y, algo, false)
}

// Shortest returns a shortest simple L-labeled path from x to y, using
// the best exact strategy available.
func (s *Solver) Shortest(g *graph.Graph, x, y int) Result {
	return s.solveWith(g, x, y, AlgoAuto, true)
}

// solveWith is the per-query forward evaluator: one search from x on
// the tier algo names (AlgoAuto: the tier the trichotomy assigns). The
// finite, subword and DAG tiers always return a shortest path; shortest
// makes the summary and baseline tiers do so too.
func (s *Solver) solveWith(g *graph.Graph, x, y int, algo Algorithm, shortest bool) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	if algo == AlgoAuto {
		algo = s.ChooseAlgorithm(g)
	}
	baseline := Baseline
	if shortest {
		baseline = BaselineShortest
	}
	switch algo {
	case AlgoFinite:
		if s.words != nil {
			return finiteWithWords(g.PinView(), s.words, x, y) // tries words in increasing length
		}
		return Finite(g, s.Min, x, y)
	case AlgoSubword:
		return Subword(g, s.Min, x, y)
	case AlgoSummary:
		if s.Expr == nil {
			return baseline(g, s.Min, x, y, nil)
		}
		return solvePsitr(g, s.seqPlans(), x, y, shortest)
	case AlgoDAG:
		res, ok := DAG(g, s.Min, x, y)
		if !ok {
			return baseline(g, s.Min, x, y, nil)
		}
		return res
	case AlgoWalk:
		if p := ShortestWalk(g, s.Min, x, y); p != nil {
			return Result{Found: true, Path: p}
		}
		return Result{}
	case AlgoNaive:
		return Naive(g, s.Min, x, y)
	default:
		return baseline(g, s.Min, x, y, nil)
	}
}

// SolveVlg answers the vertex-labeled variant on vg. Out-of-range
// vertex ids yield Result{Found: false}, never a panic.
func (s *Solver) SolveVlg(vg *graph.VGraph, x, y int) Result {
	if !validPair(vg.NumVertices(), x, y) {
		return Result{}
	}
	return VlgSolve(vg, s.Min, s.Expr, x, y)
}
