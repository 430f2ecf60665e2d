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
// Performance architecture: the per-sequence plan (units + packed
// position NFA) depends only on the Ψtr sequence, so a Solver builds
// it once and keeps it (Solver.seqPlans); graph walks go through the
// label-bucketed CSR snapshot (graph.Freeze), and all per-query scratch
// lives in a pooled, epoch-stamped seqSearcher — a warm solver only
// allocates when it materializes a witness path.

// SolvePsitr answers RSPQ(L(e)) on g. With shortest=false it stops at
// the first witness; with shortest=true it exhausts all candidate
// summaries and returns a shortest simple L-labeled path (the minimum
// over nice paths, which Lemma 14 makes globally minimal). It builds
// e's plans for this call only; a Solver keeps its own.
func SolvePsitr(g *graph.Graph, e *psitr.Expr, x, y int, shortest bool) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	return solvePsitr(g, buildPlans(e), x, y, shortest)
}

// solvePsitr is SolvePsitr over prebuilt plans, for a valid (x, y).
func solvePsitr(g *graph.Graph, plans []*seqPlan, x, y int, shortest bool) Result {
	vw := g.PinView()
	a := getArena()
	defer a.release()
	best := Result{}
	for _, plan := range plans {
		ss := acquireSeqSearcher(vw, a, plan, y, shortest, nil, sinks{})
		res := ss.run(x)
		ss.release()
		if !res.Found {
			continue
		}
		if !shortest {
			return res
		}
		if !best.Found || res.Path.Len() < best.Path.Len() {
			best = res
		}
	}
	return best
}

// unitKind enumerates skeleton plan units.
type unitKind int

const (
	uWord    unitKind = iota // mandatory word (prefix/suffix)
	uOptWord                 // (w + ε)
	uGap                     // (A^{≥k} + ε)
)

// unit is one plan step with its position-NFA states for pruning.
type unit struct {
	kind unitKind
	w    string
	a    automaton.Alphabet
	k    int
	// wordStates[j] is the NFA state after j letters (word kinds).
	wordStates []int
	// chain[j] is the NFA state after j head letters of a gap
	// (chain[0] = term entry); loop is the state reached once ≥ k
	// letters are consumed.
	chain []int
	loop  int
}

// seqPlan is the compiled, immutable evaluation plan of one Ψtr
// sequence: the unit list, the ε-free position NFA and its packed
// predecessor table, which the co-reachability sweep (sweep.go) steps
// back along. Plans depend only on the sequence, so the Solver that owns
// the expression builds them once and shares them with every query and
// every goroutine for as long as it lives.
type seqPlan struct {
	units  []unit
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

// buildPlan flattens the sequence into units and builds the position
// NFA used for co-reachability pruning.
func buildPlan(seq *psitr.Sequence) *seqPlan {
	pl := &seqPlan{}
	alpha := automaton.NewAlphabet(append([]byte(seq.Prefix+seq.Suffix), seqLetters(seq)...)...)
	n := automaton.NewNFA(1, alpha, 0)
	cur := 0 // NFA state at the current plan position

	addWord := func(w string, kind unitKind) {
		u := unit{kind: kind, w: w, wordStates: []int{cur}}
		entry := cur
		for i := 0; i < len(w); i++ {
			next := n.AddState()
			n.AddEdge(cur, w[i], next)
			u.wordStates = append(u.wordStates, next)
			cur = next
		}
		if kind == uOptWord {
			n.AddEps(entry, cur)
		}
		pl.units = append(pl.units, u)
	}

	if seq.Prefix != "" {
		addWord(seq.Prefix, uWord)
	}
	for _, t := range seq.Terms {
		switch t.Kind {
		case psitr.OptWord:
			addWord(t.W, uOptWord)
		case psitr.Gap:
			u := unit{kind: uGap, a: t.A, k: t.K}
			entry := cur
			u.chain = []int{entry}
			for j := 0; j < t.K; j++ {
				next := n.AddState()
				for _, a := range t.A {
					n.AddEdge(cur, a, next)
				}
				u.chain = append(u.chain, next)
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
			u.loop = loop
			exit := n.AddState()
			n.AddEps(entry, exit) // skip (ε)
			n.AddEps(loop, exit)  // done
			cur = exit
			pl.units = append(pl.units, u)
		}
	}
	if seq.Suffix != "" {
		addWord(seq.Suffix, uWord)
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

// skelElem is one element of a candidate skeleton: either an explicit
// edge or a gap marker.
type skelElem struct {
	isGap  bool
	gapIdx int
	label  byte
	to     int
}

type gapRec struct {
	a     automaton.Alphabet
	entry int
	exit  int
}

// gapSpan locates one completed gap path inside the flat gvs/gls
// buffers.
type gapSpan struct {
	v0, v1 int32
	l0, l1 int32
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
	ext   *coTable
	a     *arena
	plan  *seqPlan
	units []unit // aliases plan.units

	used []bool
	skel []skelElem
	gaps []gapRec

	found bool
	done  bool // early exit flag (non-shortest mode)
	best  *graph.Path

	// gap-exit enumeration: a stack of BFS orders (nested gaps share
	// the buffer with stack discipline).
	orderBuf  []int32
	reachSeen stamped

	// completion scratch
	accAll   stamped
	dstamp   stamped
	dist     []int32
	parent   []int32
	gplabel  []byte
	inQueue  []int32
	gvs      []int32
	gls      []byte
	gapSpans []gapSpan
	avs      []int
	als      []byte
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
	ss.units = ss.plan.units
	if cap(ss.used) < ss.n {
		ss.used = make([]bool, ss.n)
	} else {
		// The push/pop discipline leaves the slice all-false after every
		// run, so reuse needs no clearing.
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
		ss.sweepPacked(a, plan.packed, plan.pos.Accept, y, false, goalProbe{})
	}
	return ss
}

func (ss *seqSearcher) release() {
	ss.sweepEnv = sweepEnv{}
	ss.a = nil
	ss.plan = nil
	ss.units = nil
	ss.best = nil
	ss.ext = nil
	ss.existsOnly = false
	seqSearcherPool.Put(ss)
}

func (ss *seqSearcher) ok(v, pos int) bool {
	if ss.ext != nil {
		return ss.ext.has(v*ss.m + pos)
	}
	return ss.a.co.has(v*ss.m + pos)
}

// run answers one query from source x against the searcher's shared
// (g, seq, y) state; it may be called repeatedly on one acquired
// searcher with different sources.
func (ss *seqSearcher) run(x int) Result {
	ss.x = x
	ss.found, ss.done = false, false
	ss.best = nil
	ss.skel = ss.skel[:0]
	ss.gaps = ss.gaps[:0]
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

func (ss *seqSearcher) unitStart(ui, v int) {
	if ss.done {
		return
	}
	if ui == len(ss.units) {
		if v == ss.y {
			ss.complete()
		}
		return
	}
	u := &ss.units[ui]
	switch u.kind {
	case uWord:
		ss.walkWord(ui, 0, v)
	case uOptWord:
		ss.unitStart(ui+1, v) // skip
		ss.walkWord(ui, 0, v) // take
	case uGap:
		ss.unitStart(ui+1, v) // ε
		// Fully explicit: m ∈ [max(k,1), 2k-1] edges.
		lo := u.k
		if lo == 0 {
			lo = 1
		}
		for m := lo; m <= 2*u.k-1; m++ {
			ss.walkGapExplicit(ui, m, 0, v)
		}
		// Head (k edges) + gap + tail (k edges): m ≥ 2k.
		ss.walkGapHead(ui, 0, v)
	}
}

func (ss *seqSearcher) walkWord(ui, j, v int) {
	if ss.done {
		return
	}
	u := &ss.units[ui]
	if j == len(u.w) {
		ss.unitStart(ui+1, v)
		return
	}
	label := u.w[j]
	for _, to32 := range ss.vw.OutWith(v, label) {
		to := int(to32)
		if ss.used[to] || !ss.ok(to, u.wordStates[j+1]) {
			continue
		}
		ss.push(label, to)
		ss.walkWord(ui, j+1, to)
		ss.pop(to)
		if ss.done {
			return
		}
	}
}

// walkGapExplicit consumes exactly `remaining` more A-edges with no gap
// marker.
func (ss *seqSearcher) walkGapExplicit(ui, remaining, consumed, v int) {
	if ss.done {
		return
	}
	u := &ss.units[ui]
	if remaining == 0 {
		ss.unitStart(ui+1, v)
		return
	}
	next := consumed + 1
	pos := ss.gapPos(u, next)
	for _, label := range u.a {
		for _, to32 := range ss.vw.OutWith(v, label) {
			to := int(to32)
			if ss.used[to] || !ss.ok(to, pos) {
				continue
			}
			ss.push(label, to)
			ss.walkGapExplicit(ui, remaining-1, next, to)
			ss.pop(to)
			if ss.done {
				return
			}
		}
	}
}

func (ss *seqSearcher) gapPos(u *unit, consumed int) int {
	if consumed >= u.k {
		return u.loop
	}
	return u.chain[consumed]
}

// walkGapHead consumes the first k explicit edges, then chooses the gap
// exit.
func (ss *seqSearcher) walkGapHead(ui, j, v int) {
	if ss.done {
		return
	}
	u := &ss.units[ui]
	if j == u.k {
		ss.chooseGapExit(ui, v)
		return
	}
	pos := u.chain[j+1]
	for _, label := range u.a {
		for _, to32 := range ss.vw.OutWith(v, label) {
			to := int(to32)
			if ss.used[to] || !ss.ok(to, pos) {
				continue
			}
			ss.push(label, to)
			ss.walkGapHead(ui, j+1, to)
			ss.pop(to)
			if ss.done {
				return
			}
		}
	}
}

// chooseGapExit enumerates candidate gap exits among vertices reachable
// from the entry through A-edges (unrestricted — the completion phase
// applies the real P_i restrictions), nearest first. The BFS order is
// stacked on orderBuf so nested gaps can enumerate concurrently.
func (ss *seqSearcher) chooseGapExit(ui, entry int) {
	u := &ss.units[ui]
	base := len(ss.orderBuf)
	ss.reachSeen.reset(ss.n)
	ss.reachSeen.add(entry)
	ss.orderBuf = append(ss.orderBuf, int32(entry))
	for at := base; at < len(ss.orderBuf); at++ {
		v := int(ss.orderBuf[at])
		for _, label := range u.a {
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
	for i := base; i < end; i++ {
		if ss.done {
			break
		}
		exit := int(ss.orderBuf[i])
		if exit != entry && ss.used[exit] {
			continue
		}
		if !ss.ok(exit, u.loop) {
			continue
		}
		gi := len(ss.gaps)
		ss.gaps = append(ss.gaps, gapRec{a: u.a, entry: entry, exit: exit})
		ss.skel = append(ss.skel, skelElem{isGap: true, gapIdx: gi})
		if exit != entry {
			ss.used[exit] = true
		}
		ss.walkGapTail(ui, 0, exit)
		if exit != entry {
			ss.used[exit] = false
		}
		ss.skel = ss.skel[:len(ss.skel)-1]
		ss.gaps = ss.gaps[:gi]
	}
	ss.orderBuf = ss.orderBuf[:base]
}

func (ss *seqSearcher) walkGapTail(ui, j, v int) {
	if ss.done {
		return
	}
	u := &ss.units[ui]
	if j == u.k {
		ss.unitStart(ui+1, v)
		return
	}
	for _, label := range u.a {
		for _, to32 := range ss.vw.OutWith(v, label) {
			to := int(to32)
			if ss.used[to] || !ss.ok(to, u.loop) {
				continue
			}
			ss.push(label, to)
			ss.walkGapTail(ui, j+1, to)
			ss.pop(to)
			if ss.done {
				return
			}
		}
	}
}

func (ss *seqSearcher) push(label byte, to int) {
	ss.used[to] = true
	ss.skel = append(ss.skel, skelElem{label: label, to: to})
}

func (ss *seqSearcher) pop(to int) {
	ss.used[to] = false
	ss.skel = ss.skel[:len(ss.skel)-1]
}

// complete attempts to complete the current skeleton into a nice path,
// per Definition 4: gaps are filled in path order with shortest
// restricted paths; acc balls accumulate and later gaps must avoid
// them. Everything runs in the searcher's scratch; the only allocation
// is the witness path when the completion wins.
func (ss *seqSearcher) complete() {
	ss.accAll.reset(ss.n)
	ss.gvs = ss.gvs[:0]
	ss.gls = ss.gls[:0]
	ss.gapSpans = ss.gapSpans[:0]
	prevExit := -1
	for _, gp := range ss.gaps {
		// A gap entered at the preceding gap's exit (adjacent k=0 terms,
		// [A]*[B]*) shares that vertex with the preceding acc ball by
		// construction; Definition 4 exempts a gap's own endpoints.
		// Skeleton vertices are distinct, so equality means adjacency.
		shared := gp.entry == prevExit
		if (!shared && ss.accAll.has(gp.entry)) || (ss.accAll.has(gp.exit) && !(shared && gp.exit == gp.entry)) {
			return
		}
		prevExit = gp.exit
		// Restricted BFS from entry over gp.a-edges avoiding skeleton
		// vertices (except entry, exit) and earlier acc balls.
		ss.dstamp.reset(ss.n)
		ss.dstamp.add(gp.entry)
		ss.dist[gp.entry] = 0
		ss.parent[gp.entry] = -1
		ss.inQueue = ss.inQueue[:0]
		ss.inQueue = append(ss.inQueue, int32(gp.entry))
		for at := 0; at < len(ss.inQueue); at++ {
			v := int(ss.inQueue[at])
			for _, label := range gp.a {
				for _, to32 := range ss.vw.OutWith(v, label) {
					t := int(to32)
					if ss.dstamp.has(t) || ss.accAll.has(t) {
						continue
					}
					if (ss.used[t] || t == ss.x) && t != gp.exit && t != gp.entry {
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
		if !ss.dstamp.has(gp.exit) {
			return
		}
		target := ss.dist[gp.exit]
		// acc(i): the ball of radius length_i.
		for _, v := range ss.inQueue {
			if ss.dist[v] <= target {
				ss.accAll.add(int(v))
			}
		}
		// Record the gap path (exit back to entry, then reversed in
		// place); labels were remembered during the BFS.
		sp := gapSpan{v0: int32(len(ss.gvs)), l0: int32(len(ss.gls))}
		for v := gp.exit; ; {
			ss.gvs = append(ss.gvs, int32(v))
			if v == gp.entry {
				break
			}
			ss.gls = append(ss.gls, ss.gplabel[v])
			v = int(ss.parent[v])
		}
		sp.v1 = int32(len(ss.gvs))
		sp.l1 = int32(len(ss.gls))
		slices.Reverse(ss.gvs[sp.v0:sp.v1])
		slices.Reverse(ss.gls[sp.l0:sp.l1])
		ss.gapSpans = append(ss.gapSpans, sp)
	}

	// Assemble the full path into the flat scratch buffers.
	avs := ss.avs[:0]
	als := ss.als[:0]
	avs = append(avs, ss.x)
	for _, el := range ss.skel {
		if el.isGap {
			sp := ss.gapSpans[el.gapIdx]
			seg := ss.gvs[sp.v0:sp.v1]
			if int(seg[0]) != avs[len(avs)-1] {
				ss.avs, ss.als = avs, als
				return
			}
			for _, v := range seg[1:] {
				avs = append(avs, int(v))
			}
			als = append(als, ss.gls[sp.l0:sp.l1]...)
		} else {
			avs = append(avs, el.to)
			als = append(als, el.label)
		}
	}
	ss.avs, ss.als = avs, als
	// Lemma 15's final check: the completion must be a simple path (it
	// is by construction; verify defensively).
	if avs[len(avs)-1] != ss.y {
		return
	}
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
