package rspq

import "repro/internal/graph"

// This file implements what every backward sweep in the engine shares —
// the level-synchronous frontier and the environment a sweep runs over —
// and the first of its two round drivers: the id-list sweep, which marks
// product ids one by one over a transition relation given as arc tables.
// The baseline tier's co-reachability sweep and the walk-reduction tiers'
// distance/successor BFS call it with the arcs of the minimal DFA when
// the DFA is too wide to pack into a word; the summary tier's
// position-NFA sweep calls the same function with the arcs of its Ψtr
// plan. The second driver, over packed per-vertex words, is bitbfs.go.
//
// A sweep is one loop on the caller's goroutine. Each round pops the
// frontier, walks the reverse adjacency and settles every predecessor not
// yet visited into the next frontier, then swaps the two: the synchronous
// BFS level structure, so a round's discoveries are exactly one level.
// Rounds repeat until the frontier is empty, or until the probe the
// driver runs between rounds finds every source of a target group
// answered (goalProbe, rspq.go). Links are claimed where the discovering
// edge is in hand, so every consumer may take them as "any shortest
// witness". Parallelism lives one level up: a batch fans its target
// groups out over a worker pool (evaluator.solvePairs), each group's
// sweep on its worker's goroutine.

// sinks are the optional listeners of a sweep: the kernel telemetry
// counters (Engine and BatchSolver.SetMetrics wire them) and the
// per-query trace recording. Either may be nil.
type sinks struct {
	counts *exchCounters
	tr     *kernelTrace
}

// sweepEnv is what a backward sweep runs over: the pinned view, the
// state count m of the automaton riding on it (product ids are
// vertex·m + state) and the sinks.
type sweepEnv struct {
	vw   *graph.View
	n, m int
	sinks
}

func makeSweepEnv(vw *graph.View, m int, sk sinks) sweepEnv {
	return sweepEnv{vw: vw, n: vw.NumVertices(), m: m, sinks: sk}
}

// arc is one transition of an arcTable: the state at its far end and
// its label.
type arc struct {
	st    int32
	label byte
}

// arcTable is a labeled transition relation over the dense states
// 0..len(rev)-1 in the orientation a backward sweep walks: rev[q] lists
// the arcs INTO q by their source state, and each round steps the
// frontier backward along them. accepts lists the accepting states. The
// minimal DFA (product.dfaArcs) and the position NFA of a Ψtr sequence
// (buildPlan) both reach the id-list sweep in this form.
type arcTable struct {
	rev     [][]arc
	accepts []int32
}

// reset empties the table for m states, keeping the rows' capacity.
func (t *arcTable) reset(m int) {
	t.rev, t.accepts = t.rev[:cap(t.rev)], t.accepts[:0]
	for len(t.rev) < m {
		t.rev = append(t.rev, nil)
	}
	t.rev = t.rev[:m]
	for q := range t.rev {
		t.rev[q] = t.rev[q][:0]
	}
}

// add records the transition from -label-> to.
func (t *arcTable) add(from int, label byte, to int) {
	t.rev[to] = append(t.rev[to], arc{int32(from), label})
}

// dfaArcs lays the product's DFA out as an arc table in the arena's
// scratch (no allocation once warm). It costs O(states × letters) a
// sweep and runs only for DFAs the packed sweep cannot take.
func (p *product) dfaArcs(a *arena) *arcTable {
	t := &a.arcs
	t.reset(p.m)
	for q := 0; q < p.m; q++ {
		if p.d.Accept[q] {
			t.accepts = append(t.accepts, int32(q))
		}
		for i, label := range p.d.Alphabet {
			t.add(q, label, p.d.StepIndex(q, i))
		}
	}
	return t
}

// frontier is the level scratch of a running sweep, kept in the arena:
// the current level's list and the next one's (product ids in the
// id-list sweep, vertices in the packed one). Between sweeps both are
// empty: a sweep ends on an empty frontier, or drops it when it stops.
type frontier struct {
	fr, nx []int32
}

// swap makes the next level the current one.
func (f *frontier) swap() { f.fr, f.nx = f.nx, f.fr[:0] }

// arcSweep is the state of one running id-list sweep.
type arcSweep struct {
	sweepEnv
	ar    *arcTable
	a     *arena   // a.lv, and with links dist/parent/plabel
	marks *stamped // the visited set: a.dst with links, a.co without
	links bool
	d     int32 // the level the current round discovers
}

// sweepArcs is the id-list round driver: backward reachability over
// view × ar toward the goal (y, accepting). Mark-only it leaves the
// closure in a.co; with links it leaves validity stamps in a.dst, exact
// BFS distances in a.dist, for every reached non-goal id the successor
// one step closer to the goal and the label of that step in
// a.parent/a.plabel, and the reach list (arena.noteReached). A product
// sweep given sources probes them before every round and stops once all
// are answered (goalProbe), reporting that it stopped; pr is the zero
// probe otherwise.
func (e *sweepEnv) sweepArcs(a *arena, ar *arcTable, y int, links bool, pr goalProbe) (stopped bool) {
	lv := &a.lv
	r := arcSweep{sweepEnv: *e, ar: ar, a: a, marks: a.beginSweep(e.n*e.m, links), links: links}
	for _, q := range ar.accepts {
		if id := int32(y*e.m) + q; !r.marks.has(int(id)) {
			r.settle(id, -1, 0)
		}
	}
	lv.swap() // level 0: the goal states
	for len(lv.fr) > 0 {
		if links {
			a.noteReached(lv.fr) // every stamped id sits in one frontier exactly once
		}
		if pr.answered(a, r.marks, r.d+1, links) {
			stopped = true
			e.sweepStopped(r.d + 1)
			lv.fr = lv.fr[:0]
			break
		}
		r.d++
		t0, total := e.roundStart(), len(lv.fr)
		r.expand()
		lv.swap()
		e.roundEnd(t0, total)
	}
	e.runDone(r.d)
	return stopped
}

// settle marks id (not yet marked) as discovered this round from
// successor parent over an edge labeled label and queues it for the next
// frontier.
func (r *arcSweep) settle(id, parent int32, label byte) {
	r.marks.add(int(id))
	if r.links {
		r.a.dist[id], r.a.parent[id], r.a.plabel[id] = r.d, parent, label
	}
	r.a.lv.nx = append(r.a.lv.nx, id)
}

// expand runs one round: walk the frontier's reverse arcs against the
// in-edges and settle every predecessor not yet visited.
func (r *arcSweep) expand() {
	m := int32(r.m)
	for _, id := range r.a.lv.fr {
		v, q := int(id/m), id%m
		for _, arc := range r.ar.rev[q] {
			for _, u := range r.vw.InWith(v, arc.label) {
				if pid := u*m + arc.st; !r.marks.has(int(pid)) {
					r.settle(pid, id, arc.label)
				}
			}
		}
	}
}
