package rspq

import "repro/internal/graph"

// BatchSolver answers many RSPQ(L) queries on one frozen graph with
// shared per-target tables. Build it once per (solver, graph) pair and
// call Solve with arbitrarily many batches; it is safe for concurrent
// use by multiple goroutines (construction warms the graph-side
// indexes).
//
// It is the table-sharing evaluator (evaluator.go) with no caches
// attached: each group's y-side table lives in its worker's arena and
// nothing outlives the call. Engine is the same evaluator with caches.
type BatchSolver struct {
	evaluator
	g *graph.Graph
}

// NewBatchSolver readies a batch engine for s's language on g. It
// freezes g's query indexes eagerly (Solver.Warm), so the returned
// engine — and any other queries on g — may be used from many
// goroutines.
func NewBatchSolver(s *Solver, g *graph.Graph) *BatchSolver {
	s.Warm(g)
	bs := &BatchSolver{evaluator: evaluator{s: s, tier: s.tier}, g: g}
	bs.setWorkers(0)
	return bs
}

// SetWorkers overrides the worker-pool size; n < 1 restores the default
// (GOMAXPROCS). It returns the receiver for chaining and may be called
// concurrently with Solve (in-flight batches keep the size they read).
func (bs *BatchSolver) SetWorkers(n int) *BatchSolver {
	bs.setWorkers(n)
	return bs
}

// BatchSolve answers pairs on g with shared per-target tables; it is
// the one-shot convenience over NewBatchSolver(s, g).Solve(pairs).
func (s *Solver) BatchSolve(g *graph.Graph, pairs []Pair) []Result {
	return NewBatchSolver(s, g).Solve(pairs)
}

// Solve answers every pair, in order: out[i] is the answer to pairs[i].
// Pairs with out-of-range vertex ids get Result{Found: false}, exactly
// like the per-query surface. Queries are grouped by target so each
// group shares its y-side table, and groups run on the worker pool. On
// every tier but the finite one, whenever the shortest L-labeled walk
// answers a pair, its witness is the first shortest walk
// (product.walkFrom) or its loop-free form — always on the
// walk-reduction tiers, and on the summary and NP tiers unless the walk
// left the pair to their search. It is the same witness Solver.Solve
// returns.
func (bs *BatchSolver) Solve(pairs []Pair) []Result {
	out := make([]Result, len(pairs))
	bs.solvePairs(bs.g.PinView(), pairs, answers{out: out})
	return out
}

// SolveExists answers only the existence bit of every pair: out[i]
// reports whether pairs[i] has a simple L-labeled path. It shares the
// same per-target tables as Solve but skips witness-walk
// reconstruction entirely. On the walk-reduction tiers (subword-closed
// languages and DAGs) each source is answered by a single O(1) lookup
// in the shared backward product BFS, so existence-only batches are
// markedly cheaper than Solve there.
func (bs *BatchSolver) SolveExists(pairs []Pair) []bool {
	found := make([]bool, len(pairs))
	bs.solvePairs(bs.g.PinView(), pairs, answers{found: found})
	return found
}
