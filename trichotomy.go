// Package trichotomy is the public API of the RSPQ trichotomy library,
// a complete implementation of Bagan, Bonifati & Groz, "A Trichotomy
// for Regular Simple Path Queries on Graphs" (PODS 2013).
//
// A regular simple path query RSPQ(L) asks, given an edge-labeled
// directed graph and two vertices, whether a *simple* path (no repeated
// vertices) connects them whose edge labels spell a word of the regular
// language L. The paper classifies every regular language into three
// data-complexity tiers — AC⁰ (finite languages), NL-complete (the
// fragment trC) and NP-complete (everything else) — and gives a
// polynomial evaluation algorithm for trC. This package exposes:
//
//   - Compile: regex → classified, query-ready Language;
//   - Language.Solve / Shortest / SolveVlg: query evaluation dispatched
//     to the correct algorithm of the trichotomy;
//   - Language.BatchSolve / NewBatchSolver: batched evaluation of many
//     (x, y) pairs with shared per-target pruning tables and a
//     GOMAXPROCS-sized worker pool;
//   - Language.NewEngine: a long-lived serving engine whose pruning
//     tables and hot results survive across queries and batches in
//     epoch-keyed LRU caches (see internal/cache), invalidated
//     automatically by graph mutation;
//   - Language.Class / InTrC / IsFinite: the AC⁰ / NL / NP verdict,
//     decided by Compile; Language.HardnessWitness: the verified
//     Property-(1) witness on the NP side, searched on first request;
//   - graph construction, generators and serialization re-exported from
//     the internal packages.
//
// Quick start:
//
//	g := trichotomy.NewGraph(4)
//	g.AddEdge(0, 'a', 1)
//	g.AddEdge(1, 'b', 2)
//	g.AddEdge(2, 'b', 3)
//	lang, _ := trichotomy.Compile("a*(bb+|())c*")
//	res := lang.Solve(g, 0, 3)   // Found=true, Path spelling "abb"
//
// # Build-then-freeze lifecycle
//
// The engine is organized around immutable, query-optimized indexes
// built once and reused by every query:
//
//   - Graphs follow a build-then-freeze lifecycle: construct with
//     AddVertex/AddEdge, then query. The first query freezes the graph
//     into a label-indexed CSR snapshot (contiguous per-label adjacency
//     in both directions) and caches the alphabet (and, for languages
//     whose dispatch reads it, the acyclicity verdict). Every mutation (AddEdge, RemoveEdge, AddVertex)
//     advances the graph's mutation epoch (Graph.Epoch) and accumulates
//     in a delta overlay; the next query re-freezes INCREMENTALLY,
//     merging the delta into the previous snapshot in time proportional
//     to the delta rather than rebuilding all E edges, so streaming
//     workloads interleave mutation and query cheaply. Call
//     Language.Warm(g) after construction to freeze eagerly — required
//     before querying one graph from many goroutines, optional
//     otherwise.
//   - Compile precomputes what every query reads language-side: the
//     minimal DFA and its tier, its reverse-transition index and the
//     sorted word list of finite languages. The Ψtr evaluation plans
//     are built on the first summary-tier query and kept; the
//     Property-(1) hardness witness, which no query reads, is searched
//     only when HardnessWitness or Describe first asks for it.
//   - All search scratch (visited sets, BFS queues, distance and parent
//     arrays) is epoch-stamped and pooled, so steady-state queries on a
//     warm Language are allocation-free apart from the witness path.
package trichotomy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rspq"
)

// Graph is an edge-labeled directed graph (db-graph). It is mutable —
// AddVertex / AddEdge / RemoveEdge — with every mutation advancing its
// epoch (Epoch) and recorded in a delta overlay, so re-freezing after a
// mutation merges the delta into the previous CSR snapshot instead of
// rebuilding; FreezeStats reports the full/incremental split.
type Graph = graph.Graph

// Edge is one labeled directed edge of a Graph, the unit of the bulk
// mutation APIs (and of rspqd's /edges endpoint).
type Edge = graph.Edge

// VGraph is a vertex-labeled graph.
type VGraph = graph.VGraph

// EVGraph is a vertex-and-edge-labeled graph.
type EVGraph = graph.EVGraph

// Path is a walk through a Graph.
type Path = graph.Path

// Result is a query outcome: Found plus a witness Path.
type Result = rspq.Result

// Pair is one (source, target) query of a batch.
type Pair = rspq.Pair

// BatchSolver answers many queries on one graph with shared per-target
// tables and a worker pool; see Language.NewBatchSolver.
type BatchSolver = rspq.BatchSolver

// Engine is a long-lived serving engine for one (language, graph)
// pair: it keeps the per-target pruning tables of every algorithm tier
// and hot query results in epoch-keyed LRU caches so they survive
// across queries and batches; see Language.NewEngine.
type Engine = rspq.Engine

// EngineConfig sizes an Engine's cache tiers and worker pool; the zero
// value selects the defaults (64 MiB of tables, 16 MiB of results,
// GOMAXPROCS workers). Negative budgets disable a tier.
type EngineConfig = rspq.EngineConfig

// EngineStats reports an Engine's query counters and per-tier cache
// hit/miss/eviction statistics.
type EngineStats = rspq.EngineStats

// Class is a complexity tier of the trichotomy.
type Class = core.Class

// The three tiers of Theorem 2.
const (
	AC0        = core.AC0
	NLComplete = core.NLComplete
	NPComplete = core.NPComplete
)

// NewGraph returns a Graph with n isolated vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewVGraph returns a vertex-labeled graph with the given labels.
func NewVGraph(labels []byte) *VGraph { return graph.NewVGraph(labels) }

// Language is a compiled, classified regular language ready for
// querying.
type Language struct {
	pattern string
	solver  *rspq.Solver
}

// Compile parses the regex pattern (union '|', postfix '*' '+' '?',
// classes '[abc]', bounds '{n,m}', ε as "()"), builds its minimal DFA,
// classifies it per the trichotomy (the Lemma 6 inclusion test,
// polynomial in the DFA size), and prepares the evaluation strategy. It
// does not search for the hardness witness of an NP-complete language;
// see HardnessWitness.
func Compile(pattern string) (*Language, error) {
	s, err := rspq.NewSolver(pattern)
	if err != nil {
		return nil, err
	}
	return &Language{pattern: pattern, solver: s}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(pattern string) *Language {
	l, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return l
}

// Pattern returns the source pattern.
func (l *Language) Pattern() string { return l.pattern }

// Class returns the data-complexity tier of RSPQ(L) on edge-labeled
// graphs (Theorem 2).
func (l *Language) Class() Class { return l.solver.Classification.Class }

// InTrC reports membership in the tractable fragment.
func (l *Language) InTrC() bool { return l.solver.Classification.Tractable }

// IsFinite reports whether the language is finite (the AC⁰ tier).
func (l *Language) IsFinite() bool { return l.solver.Classification.Finite }

// MinimalDFASize returns M = |Q_L|, the size of the minimal complete
// DFA.
func (l *Language) MinimalDFASize() int { return l.solver.Classification.M }

// PsitrForm returns the Ψtr normal form of the language (Theorem 4)
// when the compiler recognized one, or "" otherwise.
func (l *Language) PsitrForm() string {
	if l.solver.Expr == nil {
		return ""
	}
	return l.solver.Expr.String()
}

// HardnessWitness renders the verified Property-(1) witness words that
// drive the NP-hardness reduction, or "" for tractable languages. The
// first call on an NP-complete language runs the witness search, which
// can take tens of milliseconds (Figure 1's a*b(cc)*d: ~24 ms); later
// calls return the kept witness for free. Safe for concurrent use.
func (l *Language) HardnessWitness() string {
	w := l.solver.HardnessWitness()
	if w == nil {
		return ""
	}
	return w.String()
}

// Member reports whether the word belongs to the language.
func (l *Language) Member(word string) bool { return l.solver.Min.Member(word) }

// Warm eagerly builds the graph-side query indexes (the CSR snapshot
// and dispatch caches) that the first query would otherwise build
// lazily. Call it after graph construction when g will be queried from
// multiple goroutines; single-goroutine use may skip it. Warming after
// a mutation is cheap: the snapshot is refreshed by merging the
// pending delta into the previous CSR, and the view, the epoch and the
// dispatch verdict are guaranteed to belong to one generation even if a
// mutation interleaves (see Graph.SnapshotView).
func (l *Language) Warm(g *Graph) { l.solver.Warm(g) }

// Solve answers RSPQ(L): is there a simple L-labeled path from x to y?
// The evaluation strategy follows the trichotomy — finite search on the
// AC⁰ tier, the subword-closed walk reduction or Ψtr summary algorithm
// on the NL tier, exact exponential backtracking on the NP side (where
// worst-case exponential time is expected). Queries always observe the
// graph's current epoch: a mutation between calls makes the next Solve
// re-freeze (incrementally) before answering.
func (l *Language) Solve(g *Graph, x, y int) Result { return l.solver.Solve(g, x, y) }

// Shortest returns a shortest simple L-labeled path from x to y, using
// the best exact strategy for the language's tier (the NP tier pays
// exponential worst-case time). Like Solve, it observes the graph's
// current mutation epoch.
func (l *Language) Shortest(g *Graph, x, y int) Result { return l.solver.Shortest(g, x, y) }

// BatchSolve answers many (x, y) queries at once. Queries are grouped
// by target so each group shares its co-reachability / backward-BFS
// pruning table (those depend only on the target), and groups run on a
// worker pool sized to GOMAXPROCS. out[i] answers pairs[i];
// out-of-range vertex ids yield Result{Found: false} like Solve. Each
// pair is answered on its tier's algorithm against the graph's current
// epoch; shared tables live only for the duration of the batch. For
// repeated batches on one graph, build a BatchSolver once with
// NewBatchSolver instead.
func (l *Language) BatchSolve(g *Graph, pairs []Pair) []Result {
	return l.solver.BatchSolve(g, pairs)
}

// BatchSolveExists answers only the existence bit of every pair —
// out[i] reports whether pairs[i] has a simple L-labeled path —
// skipping witness reconstruction entirely. On the walk-reduction
// tiers (subword-closed languages, DAG inputs) each source costs one
// O(1) lookup in the shared backward product BFS, so existence-only
// batches are markedly cheaper than BatchSolve there.
func (l *Language) BatchSolveExists(g *Graph, pairs []Pair) []bool {
	return rspq.NewBatchSolver(l.solver, g).SolveExists(pairs)
}

// NewBatchSolver readies a reusable batch engine for this language on
// g, warming the graph-side indexes eagerly; the returned engine is
// safe for concurrent use. Each batch dispatches on the graph's state
// at call time, so a mutation between batches is picked up by the next
// batch's (incremental) refreeze.
func (l *Language) NewBatchSolver(g *Graph) *BatchSolver {
	return rspq.NewBatchSolver(l.solver, g)
}

// NewEngine builds a long-lived serving engine for this language on g.
// The engine owns a frozen snapshot of the graph plus two cache tiers:
// a table cache holding the per-(language, target) pruning tables of
// all three algorithm tiers, and a result cache for hot (x, y)
// answers. Cache keys carry the graph's mutation epoch (see
// (*Graph).Epoch), so mutating g invalidates every cached entry
// automatically — the next query re-freezes and starts repopulating.
// The refreeze is incremental (a delta merge, not an O(V+E) rebuild),
// so interleaving small mutation batches with queries is cheap; see
// EngineStats.IncrementalFreezes. The engine is safe for concurrent
// use; treat Paths in returned Results as immutable, since hot results
// are shared between callers.
func (l *Language) NewEngine(g *Graph, cfg EngineConfig) *Engine {
	return rspq.NewEngine(l.solver, g, cfg)
}

// SolveWalk answers the classical RPQ (arbitrary walks may repeat
// vertices); for comparison with simple-path semantics.
func (l *Language) SolveWalk(g *Graph, x, y int) Result {
	return l.solver.SolveWith(g, x, y, rspq.AlgoWalk)
}

// SolveVlg answers the vertex-labeled variant (Section 4.1), where the
// word of a path is the sequence of labels of the vertices it enters.
func (l *Language) SolveVlg(vg *VGraph, x, y int) Result { return l.solver.SolveVlg(vg, x, y) }

// SolveBounded answers k-RSPQ — a simple L-labeled path with at most k
// edges — via the color-coding FPT algorithm of Theorem 7. seed drives
// the random colorings; NO answers are one-sided Monte Carlo with
// failure probability below 1%.
func (l *Language) SolveBounded(g *Graph, x, y, k int, seed int64) Result {
	return rspq.ColorCoding(g, l.solver.Min, x, y, k, rspq.ColorCodingOptions{Seed: seed})
}

// AlgorithmFor reports which algorithm Solve would use on g.
func (l *Language) AlgorithmFor(g *Graph) string {
	return l.solver.ChooseAlgorithm(g).String()
}

// Describe returns a one-paragraph human-readable summary of the
// classification, the hardness witness included; on an NP-complete
// language its first call therefore pays the witness search (see
// HardnessWitness).
func (l *Language) Describe() string {
	c := l.solver.Classification
	s := fmt.Sprintf("RSPQ(%s) is %v on edge-labeled graphs (minimal DFA: %d states)", l.pattern, c.Class, c.M)
	if form := l.PsitrForm(); form != "" {
		s += fmt.Sprintf("; Ψtr form: %s", form)
	}
	if w := l.HardnessWitness(); w != "" {
		s += fmt.Sprintf("; hardness witness: %s", w)
	}
	return s
}

// ClassifyVlg returns the tier on vertex-labeled graphs (Theorem 5),
// which can be lower than Class(): e.g. (ab)* drops from NP-complete
// to NL-complete. Like Compile, it decides the tier without searching
// for a witness.
func (l *Language) ClassifyVlg() Class {
	return core.Classify(l.solver.Min, core.VertexLabeled, nil).Class
}
