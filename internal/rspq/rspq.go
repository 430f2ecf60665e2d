// Package rspq implements the paper's query-evaluation algorithms:
//
//   - the summary-based polynomial solver for tractable (trC) languages
//     given as Ψtr expressions (Lemmas 12–16 and the §3.5 adaptation);
//   - the classical product-BFS RPQ solver (arbitrary-path semantics);
//   - an exact exponential baseline (backtracking over the product with
//     co-reachability pruning) used as ground truth and as the "NP side"
//     comparator;
//   - the unsound naive loop-elimination heuristic defeated by the
//     paper's Example 4;
//   - the Mendelzon–Wood fast path for subword-closed languages (trC(0));
//   - the finite-language solver (the AC⁰ tier of Theorem 2);
//   - the color-coding FPT algorithm for k-RSPQ (Theorem 7);
//   - the DAG solver (Theorem 8's polynomial combined-complexity case);
//   - the vertex-labeled (vl-graph) solvers of Section 4.1;
//   - a dispatcher that classifies the language and picks the right
//     algorithm.
//
// Every solver returns a concrete witness path on success; callers can
// re-verify simplicity and membership independently.
package rspq

import (
	"slices"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// Result is the outcome of a query: whether a simple L-labeled path
// exists, and a witness path when it does.
type Result struct {
	Found bool
	Path  *graph.Path
}

// validPair reports whether x and y both name vertices of an n-vertex
// graph. Every query entry point checks it and returns a no-answer
// (never panics) for out-of-range ids: a server-facing engine must
// treat an unknown vertex id as "no such path", not as a crash.
func validPair(n, x, y int) bool {
	return x >= 0 && x < n && y >= 0 && y < n
}

// VerifyWitness checks that a result's path really is a simple
// L(d)-labeled path of g from x to y. Tests use it to make the YES
// direction of every solver self-checking.
func VerifyWitness(res Result, g *graph.Graph, d *automaton.DFA, x, y int) bool {
	if !res.Found {
		return true
	}
	p := res.Path
	if p == nil || p.Source() != x || p.Target() != y {
		return false
	}
	return p.IsSimple() && p.ValidIn(g) && d.Member(p.Word())
}

// product indexes (vertex, state) pairs of the G×A_L product graph. It
// works on a pinned view of the graph — the frozen CSR snapshot plus
// any small pending-mutation overlay (graph.View) — so forward steps
// touch contiguous label-bucketed edge slices (overlay buckets
// substitute transparently). The embedded sweepEnv is what its backward
// sweeps (coReach, distToGoal) run over: the view, the state count m,
// the label map and the telemetry sinks an Engine wires in.
type product struct {
	sweepEnv
	d *automaton.DFA
}

// makeProduct builds the product over a pinned view, so a long-lived
// engine keeps answering against the snapshot it validated rather than
// re-pinning the live graph.
func makeProduct(vw *graph.View, d *automaton.DFA, a *arena) product {
	a.lmap = labelMap(a.lmap, vw, d.Alphabet)
	return product{sweepEnv: makeSweepEnv(vw, d.NumStates, a.lmap, sinks{}), d: d}
}

func (p *product) id(v, q int) int { return v*p.m + q }

// coReach computes, for every (v, q), whether some walk from v labeled
// w with ∆(q, w) accepting reaches y. This ignores simplicity and is
// the standard pruning oracle for the simple-path searches. The result
// is left in a.co.
func (p *product) coReach(y int, a *arena) { p.sweep(y, a, false, nil) }

// distToGoal computes product BFS distances to the accepting goal
// (y, accepting), left in a.dist; entries are valid where a.dst holds.
// For every reached non-goal node it also records the successor one
// step closer to the goal (a.parent) and the label of that step
// (a.plabel), so a shortest walk from ANY source can be read off
// forward without another search — the basis of the batched walk tiers
// (see sharedWalkFrom).
func (p *product) distToGoal(y int, a *arena) { p.sweep(y, a, true, nil) }

// sweep runs the backward sweep (sweep.go) toward (y, accepting) over
// the DFA's packed table, which Solver/Engine construction pre-builds
// (DFA.Packed is lazily cached), so fetching it is a field read on the
// query path.
//
// Given sources xs, the sweep stops as soon as every one of them is
// answered (goalProbe) and reports that it stopped. Its outputs then
// answer exactly those sources — each (x, start) stamped, with links at
// its exact distance and linked one level closer — but are not the
// closure, so nothing may be exported from them. Without sources, or
// when a source is unreachable, the sweep runs to the end.
func (p *product) sweep(y int, a *arena, links bool, xs []int) (stopped bool) {
	return p.sweepPacked(a, p.d.Packed(), p.d.Accept, y, links, p.probeFor(a, xs))
}

// goalProbe is the stop rule of a product sweep that answers a target
// group: the group's sources not yet answered, and the DFA and label
// map that step a source's start state across its out-edges. The zero
// value probes nothing, so the sweep runs to the end — what the summary
// and baseline tiers need, whose sweeps are pruning sets.
//
// The sweep calls answered before every round, with the visited set
// holding exactly the ids at the levels below the one the round
// discovers (it stamps a round's ids by the round's end). A source x is
// answered when (x, start) is already marked — only a goal state, at
// level 0, can be — or one of its out-edges x -l-> u reaches a marked
// (u, δ(start, l)). The probes before earlier rounds failed for x, so x
// sits at exactly the level the next round would discover, and the id it
// steps into one level closer.
type goalProbe struct {
	vw   *graph.View
	d    *automaton.DFA
	lmap []int16
	xs   []int32 // the unanswered sources, in the arena's scratch
}

// probeFor readies the probe of a sweep answering sources xs, copying
// them into the arena (no allocation once warm).
func (p *product) probeFor(a *arena, xs []int) goalProbe {
	if len(xs) == 0 {
		return goalProbe{}
	}
	a.srcs = a.srcs[:0]
	for _, x := range xs {
		a.srcs = append(a.srcs, int32(x))
	}
	return goalProbe{vw: p.vw, d: p.d, lmap: p.lmap, xs: a.srcs}
}

// answered probes the sources left before the round that discovers
// level d. If some are not answered yet it drops the answered ones — the
// round about to run discovers them like any other id — and reports
// false, as the zero probe always does. Otherwise the sweep stops here,
// and answered stamps every source: (x, start) joins the visited set
// and, with links, gets distance d and the successor the probe found
// (looked up before any source is marked, so never a source stamped at
// level d itself) and goes on the reach list.
func (pr *goalProbe) answered(a *arena, marks *stamped, d int32, links bool) bool {
	if len(pr.xs) == 0 {
		return false
	}
	left := pr.xs[:0]
	for _, x := range pr.xs {
		if _, _, ok := pr.step(x, marks); !ok {
			left = append(left, x)
		}
	}
	if len(left) > 0 {
		pr.xs = left
		return false
	}
	m, q0 := pr.d.NumStates, pr.d.Start
	if links {
		for _, x := range pr.xs {
			if id := int(x)*m + q0; !marks.has(id) {
				a.parent[id], a.plabel[id], _ = pr.step(x, marks)
				a.dist[id] = d
			}
		}
	}
	fresh := pr.xs[:0] // rewritten in place to the product ids stamped
	for _, x := range pr.xs {
		if id := int(x)*m + q0; !marks.has(id) { // a source may be listed twice
			marks.add(id)
			fresh = append(fresh, int32(id))
		}
	}
	if links {
		a.noteReached(fresh)
	}
	return true
}

// step returns the marked product id that answers source x and the
// label of the edge into it: (x, start) itself when marked (label 0),
// else the first marked (u, δ(start, l)) across an out-edge x -l-> u.
func (pr *goalProbe) step(x int32, marks *stamped) (succ int32, label byte, ok bool) {
	m, q0 := pr.d.NumStates, pr.d.Start
	if id := int(x)*m + q0; marks.has(id) {
		return int32(id), 0, true
	}
	for lid, di := range pr.lmap {
		if di < 0 {
			continue
		}
		t := pr.d.StepIndex(q0, int(di))
		for _, u := range pr.vw.OutWithID(int(x), lid) {
			if sid := int(u)*m + t; marks.has(sid) {
				return int32(sid), pr.vw.Label(lid), true
			}
		}
	}
	return 0, 0, false
}

// distAt returns the product distance computed by distToGoal, -1 when
// unreachable.
func (a *arena) distAt(id int) int32 {
	if !a.dst.has(id) {
		return -1
	}
	return a.dist[id]
}

// sharedWalkFrom reads a shortest L-labeled walk from x off the
// successor links left by distToGoal (which depend only on the target
// y), or nil when no walk exists. Because one backward BFS serves every
// source, a batch of queries sharing y pays for the product search once
// and then O(walk length) per query.
func (p *product) sharedWalkFrom(a *arena, x int) *graph.Path {
	cur := p.id(x, p.d.Start)
	if !a.dst.has(cur) {
		return nil
	}
	vs := a.vs[:0]
	ls := a.ls[:0]
	vs = append(vs, x)
	for a.dist[cur] > 0 {
		ls = append(ls, a.plabel[cur])
		cur = int(a.parent[cur])
		vs = append(vs, cur/p.m)
	}
	a.vs, a.ls = vs, ls
	return &graph.Path{
		Vertices: append([]int(nil), vs...),
		Labels:   append([]byte(nil), ls...),
	}
}

// ShortestWalk returns a shortest (not necessarily simple) L-labeled
// walk from x to y, or nil: the classical RPQ evaluation via BFS over
// the product G × A_L. The only allocation on a warm solver is the
// returned path.
func ShortestWalk(g *graph.Graph, d *automaton.DFA, x, y int) *graph.Path {
	if !validPair(g.NumVertices(), x, y) {
		return nil
	}
	a := getArena()
	defer a.release()
	goal := walkSearch(g, d, x, y, a)
	if goal < 0 {
		return nil
	}
	// Reconstruct from the parent links left in the arena.
	m := d.NumStates
	vs := a.vs[:0]
	ls := a.ls[:0]
	for cur := int32(goal); cur >= 0; cur = a.parent[cur] {
		vs = append(vs, int(cur)/m)
		if a.parent[cur] >= 0 {
			ls = append(ls, a.plabel[cur])
		}
	}
	slices.Reverse(vs)
	slices.Reverse(ls)
	a.vs, a.ls = vs, ls
	return &graph.Path{
		Vertices: append([]int(nil), vs...),
		Labels:   append([]byte(nil), ls...),
	}
}

// walkSearch runs the forward product BFS, leaving parent links in the
// arena. It returns the accepting goal id, or -1.
func walkSearch(g *graph.Graph, d *automaton.DFA, x, y int, a *arena) int {
	p := makeProduct(g.PinView(), d, a)
	nm := p.n * p.m
	a.seen.reset(nm)
	a.growProduct(nm)
	start := p.id(x, d.Start)
	a.seen.add(start)
	a.parent[start] = -1
	queue := a.queue[:0]
	queue = append(queue, int32(start))
	goal := -1
	L := p.vw.NumLabels()
	for at := 0; at < len(queue) && goal < 0; at++ {
		id := int(queue[at])
		v, q := id/p.m, id%p.m
		if v == y && d.Accept[q] {
			goal = id
			break
		}
		for lid := 0; lid < L; lid++ {
			di := p.lmap[lid]
			if di < 0 {
				continue
			}
			t := d.StepIndex(q, int(di))
			label := p.vw.Label(lid)
			for _, to := range p.vw.OutWithID(v, lid) {
				nid := int(to)*p.m + t
				if !a.seen.has(nid) {
					a.seen.add(nid)
					a.parent[nid] = int32(id)
					a.plabel[nid] = label
					queue = append(queue, int32(nid))
				}
			}
		}
	}
	a.queue = queue
	return goal
}

// ExistsWalk reports the boolean RPQ answer. It runs the same product
// BFS as ShortestWalk but skips witness reconstruction, so warm calls
// are allocation-free.
func ExistsWalk(g *graph.Graph, d *automaton.DFA, x, y int) bool {
	if !validPair(g.NumVertices(), x, y) {
		return false
	}
	a := getArena()
	defer a.release()
	return walkSearch(g, d, x, y, a) >= 0
}
