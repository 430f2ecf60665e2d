// Package rspq implements the paper's query-evaluation algorithms:
//
//   - the summary-based polynomial solver for tractable (trC) languages
//     given as Ψtr expressions (Lemmas 12–16 and the §3.5 adaptation);
//   - the classical RPQ solver (arbitrary-path semantics): the backward
//     product sweep, with a shortest walk read off its distances;
//   - an exact exponential baseline (backtracking over the product,
//     pruned by the distances to the goal) used as ground truth and as
//     the "NP side" comparator;
//   - the unsound naive loop-elimination heuristic defeated by the
//     paper's Example 4;
//   - the Mendelzon–Wood fast path for subword-closed languages (trC(0));
//   - the finite-language solver (the AC⁰ tier of Theorem 2);
//   - the color-coding FPT algorithm for k-RSPQ (Theorem 7);
//   - the DAG solver (Theorem 8's polynomial combined-complexity case);
//   - the vertex-labeled models of Section 4.1 (Solver.SolveVlg and
//     SolveEvl), answered on their stored db-encodings by the evaluator;
//   - a dispatcher whose tier the language fixes when it compiles
//     (Solver.ChooseAlgorithm), and one evaluator that runs its kernel
//     for every surface over the graph's pinned view (evaluator.go).
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
// sweeps (product.sweep) run over: the view, the state count m,
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

// distToGoal computes product BFS distances to the accepting goal
// (y, accepting), left in a.dist and read by a.distAt; a shortest walk
// from ANY source is then read off them forward without another search
// (walkFrom) — the basis of the batched walk tiers — and a state (v, q)
// that cannot reach the goal, which the baseline search prunes, reads -1.
func (p *product) distToGoal(y int, a *arena) { p.sweep(y, a, true, nil) }

// sweep runs the backward sweep (sweep.go) toward (y, accepting) over
// the DFA's packed table, which Solver/Engine construction pre-builds
// (DFA.Packed is lazily cached), so fetching it is a field read on the
// query path.
//
// Given sources xs, the sweep stops as soon as every one of them is
// answered (goalProbe) and reports that it stopped. Its outputs then
// answer exactly those sources — each (x, start) marked, with links at
// its exact distance and with the first step of its walk in place — but
// are not the closure, so nothing may be exported from them. Without
// sources, or when a source is unreachable, the sweep runs to the end.
func (p *product) sweep(y int, a *arena, links bool, xs []int) (stopped bool) {
	pr := p.probeFor(a, xs)
	stopped = p.sweepPacked(a, p.d.Packed(), p.d.Accept, y, links, pr)
	pr.done()
	return stopped
}

// goalProbe is the stop rule of a product sweep that answers a target
// group: the group's sources, the DFA and label map that step a source's
// start state across its out-edges, and the watch bitset of the sources'
// out-neighbours. A sweep without sources gets no probe and runs to the
// end — what the searches need, whose sweeps are pruning sets: the
// summary tier's position-NFA sweeps, and the baseline's when its walk
// step left a source open.
//
// A source x is answered when (x, start) is visited — only a goal state,
// at level 0, can be before x is answered — or one of its out-edges
// x -l-> u reaches a visited (u, δ(start, l)). The sweep asks twice:
//
//   - answered, before every round, with the visited words holding
//     exactly the levels below the one the round discovers. A source it
//     answers that earlier checks did not sits at exactly the round's
//     level.
//   - answeredMidRound, inside the round discovering level r.d, after a
//     frontier word admitted a state of a watched vertex. Every source
//     still pending failed the check before the round, so one it answers
//     sits at exactly r.d+1. Once none is pending the round is cut.
//
// Either way the sweep stops with every source answered at its exact
// distance, and settle marks them.
type goalProbe struct {
	vw   *graph.View
	d    *automaton.DFA
	lmap []int16

	// xs holds the sources, reordered as they are answered: xs[near:far]
	// at exactly the level of the running round, xs[far:left] one level
	// beyond it (answered mid-round), xs[left:] pending. Those before near
	// sit below the running round's level: the rounds before it
	// discovered them.
	xs              []int32
	near, far, left int
	watch           []uint64 // bit u: u is an out-neighbour of a source
}

// probeFor readies the arena's probe for a sweep answering sources xs:
// it copies them into the probe's scratch and marks their out-neighbours
// in its watch bitset (no allocation once warm). Without sources there
// is no probe.
func (p *product) probeFor(a *arena, xs []int) *goalProbe {
	if len(xs) == 0 {
		return nil
	}
	pr := &a.probe
	pr.vw, pr.d, pr.lmap = p.vw, p.d, p.lmap
	pr.near, pr.far, pr.left = 0, 0, 0
	pr.xs = pr.xs[:0]
	for _, x := range xs {
		pr.xs = append(pr.xs, int32(x))
	}
	if words := (p.n + 63) / 64; len(pr.watch) < words {
		pr.watch = make([]uint64, words) // the watch is all zero between sweeps
	}
	pr.setWatch(^uint64(0))
	return pr
}

// done ends the probe's sweep: it clears the watch bits and drops the
// view, so the pooled arena keeps no graph alive. A nil probe has
// nothing to do.
func (pr *goalProbe) done() {
	if pr == nil {
		return
	}
	pr.setWatch(0)
	pr.vw, pr.d, pr.lmap = nil, nil, nil
}

// setWatch sets (ones all ones) or clears (ones 0) the watch bit of
// every out-neighbour of every source, across the edges the probe steps.
func (pr *goalProbe) setWatch(ones uint64) {
	for _, x := range pr.xs {
		for lid, di := range pr.lmap {
			if di < 0 {
				continue
			}
			for _, u := range pr.vw.OutWithID(int(x), lid) {
				bit := uint64(1) << (uint(u) & 63)
				pr.watch[u>>6] = pr.watch[u>>6]&^bit | bit&ones
			}
		}
	}
}

// answered runs before the round of sweep r that discovers level r.d+1.
// The sources answered mid-round in the round before move to that level,
// and the pending ones it answers now join them there. It reports
// whether none is left pending; the sweep then stops here, and settle
// marks them.
func (pr *goalProbe) answered(r *packedSweep) bool {
	co := r.a.co
	pr.near = pr.far
	for j := pr.left; j < len(pr.xs); j++ {
		if pr.reaches(co, int(pr.xs[j])) {
			pr.xs[pr.left], pr.xs[j] = pr.xs[j], pr.xs[pr.left]
			pr.left++
		}
	}
	pr.far = pr.left
	return pr.left == len(pr.xs)
}

// answeredMidRound runs inside the round of sweep r that discovers level
// r.d, after a frontier word admitted a watched vertex: it answers
// pending sources in order while it can — each at level r.d+1 — and
// reports whether none is left pending; the round is then cut.
func (pr *goalProbe) answeredMidRound(r *packedSweep) bool {
	co := r.a.co
	for pr.left < len(pr.xs) && pr.reaches(co, int(pr.xs[pr.left])) {
		pr.left++
	}
	return pr.left == len(pr.xs)
}

// settle marks the answered sources of a sweep that stops with its level
// r.d complete up to the cut: (x, start) of xs[near:far] at d and of
// xs[far:] at d+1 — after every probe, so no source was answered through
// one marked here. d is r.d+1 when the sweep stops before a round, r.d
// when it cut one.
//
// With links, a source at r.d+1 also gets the first step of its walk: a
// cut round may not have admitted the state walkFrom steps into first,
// the first of its out-edges in walkFrom's order whose state sits at
// r.d. settle scans them in that order: a state visited at r.d is it; an
// unvisited one that steps to a state at r.d-1 — levels below r.d are
// complete — sits at exactly r.d and is marked there. The walk then
// equals the one a sweep run to the end gives.
func (pr *goalProbe) settle(r *packedSweep, d int32) {
	q0 := pr.d.Start
	for _, x := range pr.xs[pr.near:pr.far] {
		r.mark(int(x), q0, d)
	}
	if pr.far == len(pr.xs) {
		return
	}
	if r.links {
		for _, x := range pr.xs[pr.far:] {
			pr.firstStep(r, int(x))
		}
	}
	for _, x := range pr.xs[pr.far:] {
		r.mark(int(x), q0, d+1)
	}
}

// firstStep marks at r.d the state the walk from (x, start), at r.d+1,
// steps into first (settle).
func (pr *goalProbe) firstStep(r *packedSweep, x int) {
	co, q0 := r.a.co, pr.d.Start
	for lid, di := range pr.lmap {
		if di < 0 {
			continue
		}
		t := pr.d.StepIndex(q0, int(di))
		for _, u := range pr.vw.OutWithID(x, lid) {
			if co.at(int(u), t) {
				if r.a.dist[int(u)*r.m+t] == r.d {
					return
				}
			} else if pr.stepsTo(r, int(u), t, r.d-1) {
				r.mark(int(u), t, r.d)
				return
			}
		}
	}
}

// stepsTo reports whether (u, t) has an out-edge into a state visited at
// level d.
func (pr *goalProbe) stepsTo(r *packedSweep, u, t int, d int32) bool {
	co := r.a.co
	for lid, di := range pr.lmap {
		if di < 0 {
			continue
		}
		s := pr.d.StepIndex(t, int(di))
		for _, w := range pr.vw.OutWithID(u, lid) {
			if co.at(int(w), s) && r.a.dist[int(w)*r.m+s] == d {
				return true
			}
		}
	}
	return false
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
// links and a frozen goalTable both are. The pruned search (bsearch)
// also takes a finiteBound, a lower bound that reads only q.
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
// yield the same walk: a sweep stopped inside a round has every level
// below the cut one complete, and from a source beyond it the one step
// into the cut level is the state the complete level would give
// (goalProbe.settle puts it in place). Because one backward sweep serves
// every source, a batch of queries sharing the target pays for the
// product search once and then O(walk length · out-degree) per query.
// Only the returned path is allocated.
func (p *product) walkFrom(ds distances, x, q int) *graph.Path {
	d := ds.distAt(x, q)
	if d < 0 {
		return nil
	}
	vs := make([]int, 1, d+1)
	ls := make([]byte, 0, d)
	vs[0] = x
	for v := x; d > 0; d-- {
		u, t, lid := p.stepToward(ds, v, q, d)
		vs, ls = append(vs, u), append(ls, p.vw.Label(lid))
		v, q = u, t
	}
	return &graph.Path{Vertices: vs, Labels: ls}
}

// stepToward returns walkFrom's step from (v, q) at distance d > 0: the
// first out-edge v -l-> u, in label-id then adjacency order, whose
// (u, δ(q, l)) is at distance d-1, as u, δ(q, l) and l's label id.
// Exact distances always have one.
func (p *product) stepToward(ds distances, v, q int, d int32) (u, t, lid int) {
	for lid, di := range p.lmap {
		if di < 0 {
			continue
		}
		t := p.d.StepIndex(q, int(di))
		for _, u := range p.vw.OutWithID(v, lid) {
			if ds.distAt(int(u), t) == d-1 {
				return int(u), t, lid
			}
		}
	}
	panic("rspq: walk read off inexact distances")
}

// walkIsSimple reports whether the walk walkFrom reads from (x, q),
// which ds must reach, repeats no vertex. It takes the same steps,
// marking the vertices in a.seen instead of building a path, so it
// allocates nothing.
func (p *product) walkIsSimple(a *arena, ds distances, x, q int) bool {
	a.seen.reset(p.n)
	a.seen.add(x)
	for v, d := x, ds.distAt(x, q); d > 0; d-- {
		u, t, _ := p.stepToward(ds, v, q, d)
		if a.seen.has(u) {
			return false
		}
		a.seen.add(u)
		v, q = u, t
	}
	return true
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
