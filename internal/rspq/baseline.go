package rspq

import (
	"repro/internal/automaton"
	"repro/internal/graph"
)

// BaselineStats reports the work done by the exponential baseline; the
// benchmarks use it to show the NP-side search-space growth.
type BaselineStats struct {
	Nodes int64 // DFS nodes expanded
}

// bsearch carries the state of one baseline backtracking search. It is
// a struct (not a closure) so the recursion does not allocate and the
// buffers come from the arena.
type bsearch struct {
	p     product
	a     *arena
	ds    distances // to the goal (y, accepting), or a finiteBound
	live  []bool    // live[q]: DFA state q reaches acceptance
	y     int
	limit int // depth bound, -1 when unbounded
	stats *BaselineStats
	vs    []int
	ls    []byte
}

// dfs extends the current simple path from (v, q); visited vertices are
// marked in a.seen. Both modes prune by the one distance table: a child
// the goal cannot be reached from (unbounded), or not within the depth
// left (bounded), is never entered. A label into a dead DFA state is
// skipped before its neighbours, each of which that table would reject.
func (b *bsearch) dfs(v, q, used int) bool {
	if b.stats != nil {
		b.stats.Nodes++
	}
	d := b.p.d
	if v == b.y && d.Accept[q] && (b.limit < 0 || used == b.limit) {
		return true
	}
	if b.limit >= 0 && used >= b.limit {
		return false
	}
	for lid, di := range b.p.lmap {
		if di < 0 {
			continue
		}
		t := d.StepIndex(q, int(di))
		if !b.live[t] {
			continue
		}
		label := b.p.vw.Label(lid)
		for _, to32 := range b.p.vw.OutWithID(v, lid) {
			to := int(to32)
			if b.a.seen.has(to) {
				continue
			}
			if dg := b.ds.distAt(to, t); dg < 0 || b.limit >= 0 && used+1+int(dg) > b.limit {
				continue
			}
			b.a.seen.add(to)
			b.vs = append(b.vs, to)
			b.ls = append(b.ls, label)
			if b.dfs(to, t, used+1) {
				return true
			}
			b.a.seen.remove(to)
			b.vs = b.vs[:len(b.vs)-1]
			b.ls = b.ls[:len(b.ls)-1]
		}
	}
	return false
}

// run searches from x under the depth bound limit (-1: none), with the
// path buffers borrowed from the arena.
func (b *bsearch) run(x, limit int) Result {
	b.limit = limit
	b.a.seen.reset(b.p.n)
	b.a.seen.add(x)
	b.vs = append(b.a.vs[:0], x)
	b.ls = b.a.ls[:0]
	defer func() { b.a.vs, b.a.ls = b.vs[:0], b.ls[:0] }()
	if !b.dfs(x, b.p.d.Start, 0) {
		return Result{}
	}
	return Result{Found: true, Path: &graph.Path{
		Vertices: append([]int(nil), b.vs...),
		Labels:   append([]byte(nil), b.ls...),
	}}
}

// Baseline answers RSPQ(L) exactly for any regular language by
// backtracking over the product G × A_L with a visited set, pruned by
// the product distances to the goal (a child that cannot reach it is
// never entered). Worst-case exponential (the problem is NP-complete
// outside trC); complete and sound for every language. It never reads
// the shortest walk first, so it is the ground truth the tiers are
// tested against. stats may be nil.
func Baseline(g *graph.Graph, d *automaton.DFA, x, y int, stats *BaselineStats) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), d, a)
	p.distToGoal(y, a)
	return baselineWith(&p, a, a, d.CoReachable(), x, y, stats)
}

// baselineWith runs one pruned backtracking search from x against ds,
// the complete distances to target y: a frozen goal table, or the ones
// distToGoal left in the arena. They depend only on y, so queries
// sharing a target call this once per source over one table. live is
// p.d.CoReachable(), which a Solver computes once.
func baselineWith(p *product, a *arena, ds distances, live []bool, x, y int, stats *BaselineStats) Result {
	if ds.distAt(x, p.d.Start) < 0 {
		return Result{}
	}
	b := bsearch{p: *p, a: a, ds: ds, live: live, y: y, stats: stats}
	return b.run(x, -1)
}

// BaselineShortest returns a shortest simple L-labeled path via
// iterative deepening over the same pruned search, or Found=false. The
// product distance to the goal provides an admissible lower bound, so
// the first depth at which a path appears is optimal.
func BaselineShortest(g *graph.Graph, d *automaton.DFA, x, y int, stats *BaselineStats) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), d, a)
	p.distToGoal(y, a)
	return baselineShortestWith(&p, a, a, d.CoReachable(), x, y, p.n-1, stats)
}

// baselineShortestWith runs the iterative deepening from x against ds,
// lower bounds on the distance to target y that are exact at the goal:
// the complete product distances, or the finite tier's language-side
// finiteBound. The deepening starts at x's distance — no simple path is
// shorter, but one of that length may exist even when the walks of that
// length repeat a vertex — and stops after depth maxDepth: n-1, the
// longest simple path, or the longest word of a finite L. live is as in
// baselineWith.
func baselineShortestWith(p *product, a *arena, ds distances, live []bool, x, y, maxDepth int, stats *BaselineStats) Result {
	dx := ds.distAt(x, p.d.Start)
	if dx < 0 {
		return Result{}
	}
	b := bsearch{p: *p, a: a, ds: ds, live: live, y: y, stats: stats}
	for limit := int(dx); limit <= maxDepth; limit++ {
		if res := b.run(x, limit); res.Found {
			return res
		}
	}
	return Result{}
}
