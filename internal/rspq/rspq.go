// Package rspq implements the paper's query-evaluation algorithms:
//
//   - the summary-based polynomial solver for tractable (trC) languages
//     given as Ψtr expressions (Lemmas 12–16 and the §3.5 adaptation);
//   - the classical RPQ solver (arbitrary-path semantics): the backward
//     product sweep, with a shortest walk read off its distances;
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
//   - a dispatcher that picks the tier (Solver.pin), and one evaluator
//     that runs its kernel for every surface (evaluator.go).
//
// Every solver returns a concrete witness path on success; callers can
// re-verify simplicity and membership independently.
package rspq

import (
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
// (y, accepting), left in a.dist and read by a.distAt; a shortest walk
// from ANY source is then read off them forward without another search
// (walkFrom) — the basis of the batched walk tiers.
func (p *product) distToGoal(y int, a *arena) { p.sweep(y, a, true, nil) }

// sweep runs the backward sweep (sweep.go) toward (y, accepting) over
// the DFA's packed table, which Solver/Engine construction pre-builds
// (DFA.Packed is lazily cached), so fetching it is a field read on the
// query path.
//
// Given sources xs, the sweep stops as soon as every one of them is
// answered (goalProbe) and reports that it stopped. Its outputs then
// answer exactly those sources — each (x, start) marked, with links at
// its exact distance — but are not the closure, so nothing may be
// exported from them. Without sources, or when a source is unreachable,
// the sweep runs to the end.
func (p *product) sweep(y int, a *arena, links bool, xs []int) (stopped bool) {
	return p.sweepPacked(a, p.d.Packed(), p.d.Accept, y, links, p.probeFor(a, xs))
}

// goalProbe is the stop rule of a product sweep that answers a target
// group: the group's sources not yet answered, and the DFA and label
// map that step a source's start state across its out-edges. The zero
// value probes nothing, so the sweep runs to the end — what the summary
// and baseline tiers need, whose sweeps are pruning sets.
//
// The sweep calls answered before every round, with the visited words
// holding exactly the states at the levels below the one the round
// discovers (a round's words are complete by the round's end). A source
// x is answered when (x, start) is already visited — only a goal state,
// at level 0, can be — or one of its out-edges x -l-> u reaches a visited
// (u, δ(start, l)). The probes before earlier rounds failed for x, so x
// sits at exactly the level the next round would discover, and the state
// it steps into one level closer.
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

// answered probes the sources left before the round of sweep r that
// discovers level r.d+1. If some are not answered yet it drops the
// answered ones — the round about to run discovers them like any other
// state — and reports false, as the zero probe always does. Otherwise
// the sweep stops here, and answered marks (x, start) of every source
// visited and, with links, at distance r.d+1 — after probing them all,
// so no source is answered through one marked at that level.
func (pr *goalProbe) answered(r *packedSweep) bool {
	if len(pr.xs) == 0 {
		return false
	}
	co := r.a.co
	left := pr.xs[:0]
	for _, x := range pr.xs {
		if !pr.reaches(co, int(x)) {
			left = append(left, x)
		}
	}
	if len(left) > 0 {
		pr.xs = left
		return false
	}
	q0 := pr.d.Start
	bit := uint64(1) << (uint(q0) & 63)
	for _, x := range pr.xs {
		kv := int32((q0>>6)*r.n) + x
		if old := r.vis[kv]; old&bit == 0 { // a source may be listed twice
			if old == 0 {
				r.a.noteDirty(kv)
			}
			r.vis[kv] = old | bit
			if r.links {
				r.a.dist[int(x)*r.m+q0] = r.d + 1
			}
		}
	}
	return true
}

// reaches reports whether source x is answered: (x, start) visited, or a
// visited (u, δ(start, l)) across an out-edge x -l-> u.
func (pr *goalProbe) reaches(co visited, x int) bool {
	q0 := pr.d.Start
	if co.at(x, q0) {
		return true
	}
	for lid, di := range pr.lmap {
		if di < 0 {
			continue
		}
		t := pr.d.StepIndex(q0, int(di))
		for _, u := range pr.vw.OutWithID(x, lid) {
			if co.at(int(u), t) {
				return true
			}
		}
	}
	return false
}

// distances is what a shortest walk is read off: the distance to the
// goal of every (v, q), -1 when unreached. The arena's last sweep with
// links and a frozen goalTable both are.
type distances interface {
	distAt(v, q int) int32
}

// walkFrom reads a shortest L-labeled walk from (x, q) off ds, which
// must hold exact distances to one goal over p's view and DFA, or
// returns nil when (x, q) is unreached. From (v, q) at distance d > 0 it
// steps across the first out-edge v -l-> u, in label-id then adjacency
// order, whose (u, δ(q, l)) is at distance d-1, so the walk is shortest:
// the first of the shortest in that order. Distances are exact wherever
// they are read, so a stopped sweep, a full one and a cached table all
// yield the same walk. Because one backward sweep serves every source, a
// batch of queries sharing the target pays for the product search once
// and then O(walk length · out-degree) per query. Only the returned path
// is allocated.
func (p *product) walkFrom(ds distances, x, q int) *graph.Path {
	d := ds.distAt(x, q)
	if d < 0 {
		return nil
	}
	vs := make([]int, 1, d+1)
	ls := make([]byte, 0, d)
	vs[0] = x
	for v := x; d > 0; d-- {
	step:
		for lid, di := range p.lmap {
			if di < 0 {
				continue
			}
			t := p.d.StepIndex(q, int(di))
			for _, u := range p.vw.OutWithID(v, lid) {
				if ds.distAt(int(u), t) == d-1 {
					vs, ls = append(vs, int(u)), append(ls, p.vw.Label(lid))
					v, q = int(u), t
					break step
				}
			}
		}
	}
	return &graph.Path{Vertices: vs, Labels: ls}
}

// ShortestWalk returns a shortest (not necessarily simple) L-labeled
// walk from x to y, or nil: the classical RPQ evaluation. It is the
// backward sweep from y, stopped once x is answered, with the walk read
// off its distances (walkFrom) — the search BatchSolver and Engine run
// for a whole target group. The only allocation on a warm solver is the
// returned path.
func ShortestWalk(g *graph.Graph, d *automaton.DFA, x, y int) *graph.Path {
	if !validPair(g.NumVertices(), x, y) {
		return nil
	}
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), d, a)
	xs := [1]int{x}
	p.sweep(y, a, true, xs[:])
	return p.walkFrom(a, x, d.Start)
}

// ExistsWalk reports the boolean RPQ answer by a forward BFS over the
// product from (x, start) until some (y, accepting) is dequeued; warm
// calls are allocation-free. No solver calls it: it is the reference
// that tests (and the benchmark's verifier) hold the backward sweep
// against, so it shares no search code with sweep.go — only the pinned
// view and the label map.
func ExistsWalk(g *graph.Graph, d *automaton.DFA, x, y int) bool {
	if !validPair(g.NumVertices(), x, y) {
		return false
	}
	a := getArena()
	defer a.release()
	p := makeProduct(g.PinView(), d, a)
	a.seen.reset(p.n * p.m)
	start := p.id(x, d.Start)
	a.seen.add(start)
	queue := append(a.queue[:0], int32(start))
	found := false
	for at := 0; at < len(queue); at++ {
		v, q := int(queue[at])/p.m, int(queue[at])%p.m
		if v == y && d.Accept[q] {
			found = true
			break
		}
		for lid, di := range p.lmap {
			if di < 0 {
				continue
			}
			t := d.StepIndex(q, int(di))
			for _, u := range p.vw.OutWithID(v, lid) {
				if nid := p.id(int(u), t); !a.seen.has(nid) {
					a.seen.add(nid)
					queue = append(queue, int32(nid))
				}
			}
		}
	}
	a.queue = queue
	return found
}
