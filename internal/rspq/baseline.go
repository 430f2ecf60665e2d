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
	d     *automaton.DFA
	y     int
	limit int // depth bound, -1 when unbounded
	stats *BaselineStats
	cot   *coTable // cached co-reachability table; nil = use a.co
	vs    []int
	ls    []byte
}

// dfs extends the current simple path from (v, q); visited vertices are
// marked in a.seen, co-reachability pruning reads a.co (unbounded mode)
// or the a.dist lower bounds (bounded mode).
func (b *bsearch) dfs(v, q, used int) bool {
	if b.stats != nil {
		b.stats.Nodes++
	}
	if v == b.y && b.d.Accept[q] && (b.limit < 0 || used == b.limit) {
		return true
	}
	if b.limit >= 0 && used >= b.limit {
		return false
	}
	L := b.p.vw.NumLabels()
	for lid := 0; lid < L; lid++ {
		di := b.p.lmap[lid]
		if di < 0 {
			continue
		}
		t := b.d.StepIndex(q, int(di))
		label := b.p.vw.Label(lid)
		for _, to32 := range b.p.vw.OutWithID(v, lid) {
			to := int(to32)
			if b.a.seen.has(to) {
				continue
			}
			nid := to*b.p.m + t
			if b.limit < 0 {
				if b.cot != nil {
					if !b.cot.has(nid) {
						continue
					}
				} else if !b.a.co.has(nid) {
					continue
				}
			} else {
				if dg := b.a.distAt(nid); dg < 0 || used+1+int(dg) > b.limit {
					continue
				}
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

func (b *bsearch) witness() Result {
	return Result{Found: true, Path: &graph.Path{
		Vertices: append([]int(nil), b.vs...),
		Labels:   append([]byte(nil), b.ls...),
	}}
}

// Baseline answers RSPQ(L) exactly for any regular language by
// backtracking over the product G × A_L with a visited set, pruned by
// product co-reachability. Worst-case exponential (the problem is
// NP-complete outside trC); complete and sound for every language.
// stats may be nil.
func Baseline(g *graph.Graph, d *automaton.DFA, x, y int, stats *BaselineStats) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), d, a)
	p.coReach(y, a)
	return baselineWith(&p, a, d, nil, x, y, stats)
}

// baselineWith runs one pruned backtracking search from x against the
// co-reachability table of target y: the frozen table cot when non-nil
// (how Engine replays a cached (language, y) table across queries),
// else the one coReach left in a.co. The table depends only on y, so
// queries sharing a target call this once per source over one table.
func baselineWith(p *product, a *arena, d *automaton.DFA, cot *coTable, x, y int, stats *BaselineStats) Result {
	b := bsearch{p: *p, a: a, d: d, y: y, limit: -1, stats: stats, cot: cot}
	if cot != nil {
		if !cot.has(p.id(x, d.Start)) {
			return Result{}
		}
	} else if !a.co.has(p.id(x, d.Start)) {
		return Result{}
	}
	a.seen.reset(p.n)
	a.seen.add(x)
	b.vs = append(a.vs[:0], x)
	b.ls = a.ls[:0]
	defer func() { a.vs, a.ls = b.vs[:0], b.ls[:0] }()
	if b.dfs(x, d.Start, 0) {
		return b.witness()
	}
	return Result{}
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
	b := bsearch{p: makeProduct(g.PinView(), d, a), a: a, d: d, y: y, stats: stats}
	b.p.distToGoal(y, a)
	start := b.p.id(x, d.Start)
	if a.distAt(start) < 0 {
		return Result{}
	}
	defer func() { a.vs, a.ls = b.vs[:0], b.ls[:0] }()
	maxDepth := g.NumVertices() - 1
	for limit := int(a.distAt(start)); limit <= maxDepth; limit++ {
		b.limit = limit
		a.seen.reset(b.p.n)
		a.seen.add(x)
		b.vs = append(a.vs[:0], x)
		b.ls = a.ls[:0]
		if b.dfs(x, d.Start, 0) {
			return b.witness()
		}
	}
	return Result{}
}
