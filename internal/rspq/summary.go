package rspq

import (
	"slices"
	"sync"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/psitr"
)

// This file implements the paper's tractable evaluation algorithm
// (Section 3.2) in the Ψtr form suggested at the end of Section 3.5:
// for a sequence w·ϕ1⋯ϕl·w', the summary of a path keeps every vertex
// of the word terms and the k first and k last edges of each used
// A^{≥k} term, replacing the middle by an A* gap.
//
// The solver enumerates candidate summaries ("skeletons") by a
// depth-first search that follows actual graph edges, pruned by a
// product co-reachability table; every complete skeleton is then
// completed gap-by-gap in path order exactly per Definition 4:
//
//	P_i      = simple A_i*-paths from the gap entry that avoid all
//	           skeleton vertices (except the gap's own endpoints) and
//	           all earlier acc(j) balls;
//	length_i = the BFS distance from entry to exit within P_i;
//	acc(i)   = the radius-length_i BFS ball.
//
// A completed path is verified simple and L-labeled before being
// accepted (Lemma 15's check), so the solver is unconditionally sound;
// completeness is Lemma 14 adapted to Ψtr summaries — every shortest
// simple L-labeled path is nice, i.e. decomposes into such a skeleton
// with shortest gap completions — which the test-suite cross-validates
// against the exponential baseline on randomized instances.
//
// Performance architecture: the per-sequence plan depends only on the
// Ψtr sequence, so a Solver builds it once and keeps it
// (Solver.seqPlans). It compiles each unit into its alternatives, so
// the search is one walker over steps, beside the packed position NFA
// that prunes it. Graph walks go through the label-bucketed CSR snapshot
// (graph.Freeze), and all per-query scratch lives in a pooled,
// epoch-stamped seqSearcher — a warm solver only allocates when it
// materializes a witness path.

// SolvePsitr answers RSPQ(L(e)) on g. With shortest=false it stops at
// the first witness; with shortest=true it exhausts all candidate
// summaries and returns a shortest simple L-labeled path (the minimum
// over nice paths, which Lemma 14 makes globally minimal). It is the
// evaluator's summary tier for a group of one, over plans built for
// this call only; a Solver keeps its own.
func SolvePsitr(g *graph.Graph, e *psitr.Expr, x, y int, shortest bool) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	// The summary tier reads only the Solver's plans, built from Expr.
	ev := evaluator{s: &Solver{Expr: e}, tier: AlgoSummary}
	return ev.solveOne(g.PinView(), x, y, false, shortest, nil)
}

// step is one move of a unit's alternative: it reads one edge labelled
// in labels, landing on position pos of the plan's position NFA. A gap
// step instead jumps to an exit reachable through labels-edges, landing
// on pos; the completion fills the jump (Definition 4).
type step struct {
	labels automaton.Alphabet
	pos    int
	gap    bool
}

// seqPlan is the compiled, immutable evaluation plan of one Ψtr
// sequence: the alternatives of each unit in search order, the ε-free
// position NFA and its packed predecessor table, which the
// co-reachability sweep (sweep.go) steps back along. Plans depend only
// on the sequence, so the Solver that owns the expression builds them
// once and shares them with every query and every goroutine for as long
// as it lives.
type seqPlan struct {
	units  [][][]step
	pos    *automaton.NFA
	packed *automaton.Packed
}

// buildPlans builds the plans of e's sequences, in sequence order.
func buildPlans(e *psitr.Expr) []*seqPlan {
	plans := make([]*seqPlan, len(e.Seqs))
	for i, seq := range e.Seqs {
		plans[i] = buildPlan(seq)
	}
	return plans
}

// buildPlan compiles the sequence's units into their alternatives and
// builds the position NFA used for co-reachability pruning. A word is
// one alternative, and an optional word tries the empty one first. A gap
// A^{≥k} tries ε, then the explicit runs of m ∈ [max(k,1), 2k−1] edges,
// then k head edges, the gap step and k tail edges (m ≥ 2k).
func buildPlan(seq *psitr.Sequence) *seqPlan {
	pl := &seqPlan{}
	alpha := automaton.NewAlphabet(append([]byte(seq.Prefix+seq.Suffix), seqLetters(seq)...)...)
	n := automaton.NewNFA(1, alpha, 0)
	cur := 0 // NFA state at the current plan position

	addWord := func(w string) []step {
		letters := []byte(w)
		var alt []step
		for i := range letters {
			next := n.AddState()
			n.AddEdge(cur, letters[i], next)
			alt = append(alt, step{labels: letters[i : i+1], pos: next})
			cur = next
		}
		return alt
	}

	if seq.Prefix != "" {
		pl.units = append(pl.units, [][]step{addWord(seq.Prefix)})
	}
	for _, t := range seq.Terms {
		entry := cur
		switch t.Kind {
		case psitr.OptWord:
			alt := addWord(t.W)
			n.AddEps(entry, cur)
			pl.units = append(pl.units, [][]step{nil, alt})
		case psitr.Gap:
			// chain[j] is the state after j ≤ k letters; loop, the state
			// once ≥ k letters are consumed, is chain[k] when k > 0.
			chain := []int{entry}
			for j := 0; j < t.K; j++ {
				next := n.AddState()
				for _, a := range t.A {
					n.AddEdge(cur, a, next)
				}
				chain = append(chain, next)
				cur = next
			}
			loop := cur
			if t.K == 0 {
				loop = n.AddState()
				n.AddEps(entry, loop)
			}
			for _, a := range t.A {
				n.AddEdge(loop, a, loop)
			}
			exit := n.AddState()
			n.AddEps(entry, exit) // skip (ε)
			n.AddEps(loop, exit)  // done
			cur = exit

			// edges lists gap edges from..to, counted from 1: edge j
			// lands on chain[j] while j < k, and on loop = chain[k] after.
			edges := func(from, to int) []step {
				var run []step
				for j := from; j <= to; j++ {
					run = append(run, step{labels: t.A, pos: chain[min(j, t.K)]})
				}
				return run
			}
			alts := [][]step{nil}
			for m := max(t.K, 1); m <= 2*t.K-1; m++ {
				alts = append(alts, edges(1, m))
			}
			gap := step{labels: t.A, pos: loop, gap: true}
			alts = append(alts, slices.Concat(edges(1, t.K), []step{gap}, edges(t.K+1, 2*t.K)))
			pl.units = append(pl.units, alts)
		}
	}
	if seq.Suffix != "" {
		pl.units = append(pl.units, [][]step{addWord(seq.Suffix)})
	}
	n.Accept[cur] = true

	pl.pos = n.EpsFree()
	pl.packed = automaton.NewPackedNFA(pl.pos)
	return pl
}

func seqLetters(seq *psitr.Sequence) []byte {
	var out []byte
	for _, t := range seq.Terms {
		out = append(out, t.W...)
		out = append(out, t.A...)
	}
	return out
}

// skelElem is one element of a candidate skeleton: an explicit edge
// labelled label into to, or a gap over the alphabet a from the vertex
// of the element before it to the exit to.
type skelElem struct {
	gap   bool
	a     automaton.Alphabet
	label byte
	to    int
}

type seqSearcher struct {
	// sweepEnv carries the view, its vertex count n, as the state count
	// m the plan's position count — so (vertex, position) pairs are the
	// product ids v*m + pos the co-reachability sweep marks — and as the
	// label map labels, the scratch that keeps its capacity across pool
	// round trips.
	sweepEnv
	labels   []int16
	x, y     int
	shortest bool
	// existsOnly suppresses witness materialization: the first valid
	// completion sets found and stops, allocating nothing.
	existsOnly bool
	// ext, when non-nil, is a frozen co-reachability table (from a
	// cross-query cache) used instead of sweeping; otherwise the table
	// is a.co of the caller's arena, which the searcher borrows until it
	// is released.
	ext  *coTable
	a    *arena
	plan *seqPlan

	used []bool
	skel []skelElem

	found bool
	done  bool // early exit flag (non-shortest mode)
	best  *graph.Path

	// gap-exit enumeration: a stack of BFS orders (nested gaps share
	// the buffer with stack discipline).
	orderBuf  []int32
	reachSeen stamped

	// completion scratch
	accAll  stamped
	dstamp  stamped
	dist    []int32
	parent  []int32
	gplabel []byte
	inQueue []int32
	avs     []int
	als     []byte
}

var seqSearcherPool = sync.Pool{New: func() any { return new(seqSearcher) }}

// acquireSeqSearcher readies a pooled searcher for queries on one
// (view, plan, y) combination: scratch grown in place, co-reachability
// table swept into a.co (it depends only on the view and y — NOT on the
// source x, which is supplied per run call, so queries sharing a target
// reuse the table) unless a cached one (ext) is supplied — the summary tier's cross-query cache hit path. The
// table marks the (vertex, position) pairs from which the remaining
// sequence can still be matched by some walk to y (ignoring simplicity)
// — the pruning oracle — and the sweep is the one of sweep.go over the
// plan's packed position NFA, reporting to sk like any product sweep.
func acquireSeqSearcher(vw *graph.View, a *arena, plan *seqPlan, y int, shortest bool, ext *coTable, sk sinks) *seqSearcher {
	ss := seqSearcherPool.Get().(*seqSearcher)
	ss.plan = plan
	ss.labels = labelMap(ss.labels, vw, plan.pos.Alphabet)
	ss.sweepEnv = makeSweepEnv(vw, plan.pos.NumStates, ss.labels, sk)
	ss.y = y
	ss.shortest = shortest
	if cap(ss.used) < ss.n {
		ss.used = make([]bool, ss.n)
	} else {
		// The walker unmarks every vertex it marks, which leaves the slice
		// all-false after every run, so reuse needs no clearing.
		ss.used = ss.used[:ss.n]
	}
	if cap(ss.dist) < ss.n {
		ss.dist = make([]int32, ss.n)
		ss.parent = make([]int32, ss.n)
		ss.gplabel = make([]byte, ss.n)
	}
	ss.dist = ss.dist[:ss.n]
	ss.parent = ss.parent[:ss.n]
	ss.gplabel = ss.gplabel[:ss.n]
	ss.ext = ext
	ss.a = a
	if ext == nil {
		ss.sweepPacked(a, plan.packed, plan.pos.Accept, y, false, nil)
	}
	return ss
}

func (ss *seqSearcher) release() {
	ss.sweepEnv = sweepEnv{}
	ss.a = nil
	ss.plan = nil
	ss.best = nil
	ss.ext = nil
	ss.existsOnly = false
	seqSearcherPool.Put(ss)
}

func (ss *seqSearcher) ok(v, pos int) bool {
	if ss.ext != nil {
		return ss.ext.has(v*ss.m + pos)
	}
	return ss.a.co.at(v, pos)
}

// run answers one query from source x against the searcher's shared
// (g, seq, y) state; it may be called repeatedly on one acquired
// searcher with different sources.
func (ss *seqSearcher) run(x int) Result {
	ss.x = x
	ss.found, ss.done = false, false
	ss.best = nil
	ss.skel = ss.skel[:0]
	ss.orderBuf = ss.orderBuf[:0]
	if !ss.ok(x, ss.plan.pos.Start) {
		return Result{}
	}
	ss.used[x] = true
	ss.unitStart(0, x)
	ss.used[x] = false
	if ss.found {
		return Result{Found: true, Path: ss.best}
	}
	return Result{}
}

// unitStart tries unit ui's alternatives from v in plan order; past
// the last unit, a skeleton that ends at y is completed.
func (ss *seqSearcher) unitStart(ui, v int) {
	if ui == len(ss.plan.units) {
		if v == ss.y {
			ss.complete()
		}
		return
	}
	for _, alt := range ss.plan.units[ui] {
		if ss.done {
			return
		}
		ss.walk(ui, alt, v)
	}
}

// walk takes the steps left in unit ui's alternative from v: each edge
// step extends the skeleton by one unused vertex that can still reach
// the step's position, and a gap step chooses its exit. A traced query
// counts every call as one search node.
func (ss *seqSearcher) walk(ui int, steps []step, v int) {
	if ss.tr != nil {
		ss.tr.search.Nodes++
	}
	if len(steps) == 0 {
		ss.unitStart(ui+1, v)
		return
	}
	st := &steps[0]
	if st.gap {
		ss.chooseGapExit(ui, steps, v)
		return
	}
	for _, label := range st.labels {
		for _, to32 := range ss.vw.OutWith(v, label) {
			to := int(to32)
			if ss.used[to] || !ss.ok(to, st.pos) {
				continue
			}
			ss.used[to] = true
			ss.skel = append(ss.skel, skelElem{label: label, to: to})
			ss.walk(ui, steps[1:], to)
			ss.skel = ss.skel[:len(ss.skel)-1]
			ss.used[to] = false
			if ss.done {
				return
			}
		}
	}
}

// chooseGapExit enumerates candidate exits of the gap step steps[0]
// among vertices reachable from the entry through its edges
// (unrestricted — the completion applies the real P_i restrictions),
// nearest first, and walks on from each. The BFS order is stacked on
// orderBuf so nested gaps can enumerate concurrently.
func (ss *seqSearcher) chooseGapExit(ui int, steps []step, entry int) {
	st := &steps[0]
	base := len(ss.orderBuf)
	ss.reachSeen.reset(ss.n)
	ss.reachSeen.add(entry)
	ss.orderBuf = append(ss.orderBuf, int32(entry))
	for at := base; at < len(ss.orderBuf); at++ {
		v := int(ss.orderBuf[at])
		for _, label := range st.labels {
			for _, to32 := range ss.vw.OutWith(v, label) {
				to := int(to32)
				if !ss.reachSeen.has(to) {
					ss.reachSeen.add(to)
					ss.orderBuf = append(ss.orderBuf, int32(to))
				}
			}
		}
	}
	end := len(ss.orderBuf)
	for i := base; i < end && !ss.done; i++ {
		exit := int(ss.orderBuf[i])
		if (exit != entry && ss.used[exit]) || !ss.ok(exit, st.pos) {
			continue
		}
		ss.skel = append(ss.skel, skelElem{gap: true, a: st.labels, to: exit})
		if exit != entry {
			ss.used[exit] = true
		}
		ss.walk(ui, steps[1:], exit)
		if exit != entry {
			ss.used[exit] = false
		}
		ss.skel = ss.skel[:len(ss.skel)-1]
	}
	ss.orderBuf = ss.orderBuf[:base]
}

// complete attempts to complete the current skeleton into a nice path,
// per Definition 4, in one pass in path order: explicit edges are
// copied, and gaps are filled with shortest restricted paths; acc balls
// accumulate and later gaps must avoid them. Everything runs in the
// searcher's scratch; the only allocation is the witness path when the
// completion wins.
func (ss *seqSearcher) complete() {
	ss.accAll.reset(ss.n)
	avs := append(ss.avs[:0], ss.x)
	als := ss.als[:0]
	defer func() { ss.avs, ss.als = avs, als }()
	prevExit := -1
	for _, el := range ss.skel {
		if !el.gap {
			avs = append(avs, el.to)
			als = append(als, el.label)
			continue
		}
		entry, exit := avs[len(avs)-1], el.to
		// A gap entered at the preceding gap's exit (adjacent k=0 terms,
		// [A]*[B]*) shares that vertex with the preceding acc ball by
		// construction; Definition 4 exempts a gap's own endpoints.
		// Skeleton vertices are distinct, so equality means adjacency.
		shared := entry == prevExit
		if (!shared && ss.accAll.has(entry)) || (ss.accAll.has(exit) && !(shared && exit == entry)) {
			return
		}
		prevExit = exit
		// Restricted BFS from entry over el.a-edges avoiding skeleton
		// vertices (except entry, exit) and earlier acc balls.
		ss.dstamp.reset(ss.n)
		ss.dstamp.add(entry)
		ss.dist[entry] = 0
		ss.parent[entry] = -1
		ss.inQueue = append(ss.inQueue[:0], int32(entry))
		for at := 0; at < len(ss.inQueue); at++ {
			v := int(ss.inQueue[at])
			for _, label := range el.a {
				for _, to32 := range ss.vw.OutWith(v, label) {
					t := int(to32)
					if ss.dstamp.has(t) || ss.accAll.has(t) {
						continue
					}
					if (ss.used[t] || t == ss.x) && t != exit && t != entry {
						continue
					}
					ss.dstamp.add(t)
					ss.dist[t] = ss.dist[v] + 1
					ss.parent[t] = int32(v)
					ss.gplabel[t] = label
					ss.inQueue = append(ss.inQueue, int32(t))
				}
			}
		}
		if !ss.dstamp.has(exit) {
			return
		}
		target := ss.dist[exit]
		// acc(i): the ball of radius length_i.
		for _, v := range ss.inQueue {
			if ss.dist[v] <= target {
				ss.accAll.add(int(v))
			}
		}
		// Append the gap path: grow both buffers by its length, then fill
		// them from the exit back along the BFS parents.
		avs = slices.Grow(avs, int(target))[:len(avs)+int(target)]
		als = slices.Grow(als, int(target))[:len(als)+int(target)]
		for i, v := len(avs)-1, exit; v != entry; i, v = i-1, int(ss.parent[v]) {
			avs[i], als[i-1] = v, ss.gplabel[v]
		}
	}
	// Lemma 15's final check: the completion must be a simple path (it
	// is by construction; verify defensively).
	ss.dstamp.reset(ss.n)
	for _, v := range avs {
		if ss.dstamp.has(v) {
			return
		}
		ss.dstamp.add(v)
	}
	if ss.existsOnly {
		// The completion is valid; the caller only wants the bit, so
		// skip materializing the witness path.
		ss.found = true
		ss.done = true
		return
	}
	if !ss.found || len(als) < ss.best.Len() {
		ss.found = true
		ss.best = &graph.Path{
			Vertices: append([]int(nil), avs...),
			Labels:   append([]byte(nil), als...),
		}
	}
	if !ss.shortest {
		ss.done = true
	}
}
