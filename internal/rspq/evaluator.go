package rspq

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
)

// This file is the per-target backward evaluator, the one place where
// the trichotomy's tier rule meets a shared y-side table. The
// observation behind it: every product-based tier prunes (or outright
// answers) with a table that depends only on the TARGET of the query —
// the backward product BFS (distToGoal) for the walk-reduction tiers,
// and for the summary and baseline tiers too, which read each source's
// shortest walk off it first (walkFirst) and search only from the
// sources it leaves open: the baseline pruned by the same distances,
// the Ψtr summary solver by its position-NFA co-reachability tables.
// Queries over one language therefore group naturally by y: the table
// is obtained once per group and every source in the group is answered
// against it.
//
// Solver, BatchSolver and Engine are all this evaluator, and solveGroup
// is the one place a tier is mapped to its kernel. They differ only in
// where tables and answers live: a Solver and a BatchSolver keep tables
// in the arena for the duration of one group and retain nothing; an
// Engine feeds both to epoch-keyed caches so they survive across
// queries and batches. A single Solver or Engine query is a group of
// one, built on the caller's stack (solveOne).
//
// Groups are independent, so a batch fans them out over a worker pool.
// Each worker owns one pooled arena for its whole shift and the summary
// tier reuses one pooled seqSearcher per (sequence, target), so
// steady-state batches stay near the per-query zero-allocation
// contract: the remaining allocations are the witness paths, the
// per-batch grouping index and whatever the caches retain. This pool is
// the engine's only parallelism: each group's backward sweep is one
// level-synchronous loop on its worker's goroutine (sweep.go).

// Pair is one (source, target) query of a batch.
type Pair struct {
	X, Y int
}

// pinned is one consistent pinned view of the graph: the snapshot view
// (base CSR plus any pending-delta overlay), the epoch it was pinned
// under, and the dispatch verdict. It is immutable; a mutation makes the
// next query pin a fresh one — WITHOUT freezing, when the delta is small
// enough for an overlay (graph.View), so mutations never stall reads on
// a refreeze and never invalidate in-flight queries (which keep their
// own).
type pinned struct {
	vw    *graph.View
	epoch uint64
	algo  Algorithm
}

// targetGroup collects the sources querying one shared target, with
// the answer slot of each.
type targetGroup struct {
	y   int
	xs  []int
	idx []int
}

// answers is where a batch's answers land: full results in out, or
// only existence bits in found. Exactly one is non-nil, and every slot
// starts out as "no path". shortest (set by Solver.Shortest alone) makes
// the summary and baseline tiers take only a simple shortest walk and
// search on past their first witness.
type answers struct {
	out      []Result
	found    []bool
	shortest bool
}

func (w answers) existsOnly() bool { return w.found != nil }

func (w answers) get(i int) Result {
	if w.found != nil {
		return Result{Found: w.found[i]}
	}
	return w.out[i]
}

func (w answers) set(i int, res Result) {
	if w.found != nil {
		w.found[i] = res.Found
	} else {
		w.out[i] = res
	}
}

// solveTiming is the sink a traced query threads through solveGroup and
// its table helpers: the kernel trace the sweeps fill, plus
// the table/kernel stage split and the table-cache verdict. It is nil
// on every untraced path.
type solveTiming struct {
	kt       *kernelTrace
	tableNs  int64
	kernelNs int64
	tableHit bool

	// The goal table the query built or hit, if any: how many product
	// states its sweep reached and what the table cache retains for it.
	tableStates int
	tableBytes  int64
}

// noteGoalTable records the goal table a traced query was served from.
func (st *solveTiming) noteGoalTable(t *goalTable, hit bool) {
	if st == nil {
		return
	}
	st.tableHit = st.tableHit || hit
	st.tableStates, st.tableBytes = t.states, t.cost()
}

// searchStats is where a traced query's fallback search counts the
// nodes it expands (QueryTrace.SearchNodes); nil off the trace path.
func (st *solveTiming) searchStats() *BaselineStats {
	if st == nil {
		return nil
	}
	return &st.kt.search
}

// evaluator answers target groups for one language. The zero value of
// every field but s is valid and means "off".
type evaluator struct {
	s *Solver

	tables  *cache.Cache[tableKey, any]     // nil: tables stay in the worker's arena
	results *cache.Cache[resultKey, Result] // nil: answers are not retained

	workers atomic.Int32 // pool size; atomic so SetWorkers may race with a batch

	// met receives the table/kernel stage intervals (nil off the Engine:
	// the clock is then never read); counts is the kernel telemetry sink
	// wired into every search, optional too.
	met    *engineMetrics
	counts *exchCounters
}

func (ev *evaluator) setWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	ev.workers.Store(int32(n))
}

// solvePairs answers every pair into its slot of w: out-of-range ids
// keep the "no path" slot, pairs the result cache knows are answered
// from it, and the rest are grouped by target — so each group shares
// its y-side table — and fanned out over the worker pool. pv must be
// pinned by the caller, on its goroutine: the workers then all read one
// immutable view, so the first batch after an (externally
// synchronized) mutation never races on the lazy pin.
func (ev *evaluator) solvePairs(pv *pinned, pairs []Pair, w answers) {
	n := pv.vw.NumVertices()
	var groups []targetGroup
	pos := make(map[int]int)
	for i, pq := range pairs {
		if !validPair(n, pq.X, pq.Y) {
			continue
		}
		if res, ok := ev.cachedResult(pv.epoch, pq.X, pq.Y, w.existsOnly()); ok {
			w.set(i, res)
			continue
		}
		gi, ok := pos[pq.Y]
		if !ok {
			gi = len(groups)
			pos[pq.Y] = gi
			groups = append(groups, targetGroup{y: pq.Y})
		}
		groups[gi].xs = append(groups[gi].xs, pq.X)
		groups[gi].idx = append(groups[gi].idx, i)
	}

	workers := min(int(ev.workers.Load()), len(groups))
	if workers <= 1 {
		if len(groups) > 0 {
			a := getArena()
			for gi := range groups {
				ev.solveGroup(pv, a, &groups[gi], w, nil)
			}
			a.release()
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := getArena() // one arena per worker, for its whole shift
			defer a.release()
			for gi := range work {
				ev.solveGroup(pv, a, &groups[gi], w, nil)
			}
		}()
	}
	for gi := range groups {
		work <- gi
	}
	close(work)
	wg.Wait()
}

// solveGroup answers one target group on pv's tier, writing into the
// disjoint slots named by grp.idx and feeding each answer to the result
// cache. The y-side table comes from the table cache when there is one
// (computed and cached on miss) and from the arena otherwise. st is the
// trace sink of a traced single query, nil otherwise; per-source search
// loops are credited to the kernel stage as one interval.
func (ev *evaluator) solveGroup(pv *pinned, a *arena, grp *targetGroup, w answers, st *solveTiming) {
	d := ev.s.Min
	switch pv.algo {
	case AlgoFinite:
		// No y-side table: the baseline's deepening from x is pruned by
		// each state's distance to acceptance and capped at L's longest
		// word, both fixed at compile time.
		p, fb := ev.product(pv, a, st), ev.s.finite
		stats := st.searchStats()
		k0 := ev.clock()
		for j, x := range grp.xs {
			w.set(grp.idx[j], baselineShortestWith(&p, a, fb, ev.s.live, x, grp.y, fb.depth, stats))
		}
		ev.observeKernel(k0, st)
	case AlgoSubword, AlgoDAG:
		if !w.existsOnly() {
			// One backward product BFS serves the group: every source
			// reads its shortest walk off the distances.
			v := ev.goalViewFor(pv, a, grp.y, grp.xs, st)
			for j, x := range grp.xs {
				w.set(grp.idx[j], ev.answerGoal(&v, x))
			}
			break
		}
		// Existence needs no distances — (x, start) reaches the goal iff
		// it is co-reachable, and that is the answer: on DAGs every walk
		// is simple, and under subword closure loop removal lands back in
		// the language. So the group is answered by a cached co-table —
		// looked up first, so that exists traffic pays one lookup and no
		// miss — else by a cached goal table (left by earlier witness
		// queries on this target; probed without counting a second miss),
		// else by the mark-only sweep instead of distToGoal, whose tables
		// are this ask's alone. Either sweep stops once the group's
		// sources are answered (goalProbe).
		ct := ev.cachedCoTable(pv, grp.y, st)
		if ct == nil && ev.tables != nil {
			t0 := ev.clock()
			v, ok := ev.tables.Probe(ev.tableKey(pv, grp.y, -1, tableGoal))
			ev.observeTable(t0, st)
			if ok {
				gt := v.(*goalTable)
				st.noteGoalTable(gt, true)
				for j, x := range grp.xs {
					w.set(grp.idx[j], Result{Found: gt.distAt(x, d.Start) >= 0})
				}
				break
			}
		}
		p := ev.product(pv, a, st)
		if ct == nil {
			ct = ev.sweepCoTable(pv, &p, a, grp.y, grp.xs, st)
		}
		for j, x := range grp.xs {
			if ct != nil {
				w.set(grp.idx[j], Result{Found: ct.has(p.id(x, d.Start))})
			} else {
				w.set(grp.idx[j], Result{Found: a.co.at(x, d.Start)})
			}
		}
	case AlgoSummary:
		// The shortest walk answers most sources; SolvePsitr's Solver
		// holds only the Ψtr expression, no DFA to walk, and runs the
		// paper's search alone.
		left := len(grp.xs)
		if ev.s.Min != nil {
			_, left = ev.walkFirst(pv, a, grp, w, st)
		}
		ev.summarySearch(pv, a, grp, left, w, st)
	default:
		// The exponential tier backtracks only from the sources the
		// shortest walk leaves, pruned by the same distances — which must
		// then be complete: a sweep stopped at the sources runs again to
		// the end. The shortest ask deepens iteratively from the walk's
		// length.
		v, left := ev.walkFirst(pv, a, grp, w, st)
		if left == 0 {
			break
		}
		if v.stopped {
			v = ev.sweepGoal(pv, a, grp.y, nil, st)
		}
		stats := st.searchStats()
		k0 := ev.clock()
		for j, x := range grp.xs[:left] {
			if w.shortest {
				w.set(grp.idx[j], baselineShortestWith(&v.p, a, v.ds, ev.s.live, x, grp.y, v.p.n-1, stats))
			} else {
				w.set(grp.idx[j], baselineWith(&v.p, a, v.ds, ev.s.live, x, grp.y, stats))
			}
		}
		ev.observeKernel(k0, st)
	}
	if ev.results != nil {
		for j, x := range grp.xs {
			ev.storeResult(pv.epoch, x, grp.y, w.existsOnly(), w.get(grp.idx[j]))
		}
	}
}

// walkFirst answers from the shortest walk every source of grp that the
// walk decides, and moves the sources left to the front of grp, in
// their order, returning how many there are along with the goal view it
// read the walks off. Every simple path is a walk, so a source with no
// walk has no path, and a simple shortest walk is a shortest simple
// path; a loop-free walk that stays in L is a simple path too (fromWalk).
// The view is goalViewFor's: one backward sweep, stopped once the
// group's sources are answered, or the cached goal table.
func (ev *evaluator) walkFirst(pv *pinned, a *arena, grp *targetGroup, w answers, st *solveTiming) (goalView, int) {
	v := ev.goalViewFor(pv, a, grp.y, grp.xs, st)
	k0 := ev.clock()
	left := 0
	for j, x := range grp.xs {
		if res, ok := ev.fromWalk(&v, a, x, w); ok {
			w.set(grp.idx[j], res)
			continue
		}
		grp.xs[left], grp.xs[j] = grp.xs[j], grp.xs[left]
		grp.idx[left], grp.idx[j] = grp.idx[j], grp.idx[left]
		left++
	}
	ev.observeKernel(k0, st)
	return v, left
}

// fromWalk answers source x off the goal view when its shortest walk
// decides the ask, and reports whether it did. No walk means no path. A
// simple walk answers every ask; allocation-free when only existence is
// asked. Otherwise a Solve or existence ask takes the walk's loop-free
// form when it stays in L (loopFree), and the shortest ask takes
// nothing: a shorter simple path than what loop removal leaves may
// exist.
func (ev *evaluator) fromWalk(v *goalView, a *arena, x int, w answers) (Result, bool) {
	start := ev.s.Min.Start
	if v.ds.distAt(x, start) < 0 {
		return Result{}, true
	}
	if v.p.walkIsSimple(a, v.ds, x, start) {
		if w.existsOnly() {
			return Result{Found: true}, true
		}
		return pathResult(v.p.walkFrom(v.ds, x, start)), true
	}
	if w.shortest {
		return Result{}, false
	}
	path := loopFree(ev.s.Min, v.p.walkFrom(v.ds, x, start))
	return pathResult(path), path != nil
}

// summarySearch runs the Ψtr summary search from the first left sources
// of grp; with none left it builds nothing, not even the plans. Each
// sequence's position-NFA co-reachability table depends only on the
// view and y: one pooled searcher per (sequence, target) runs once per
// source still unanswered, or per source when asked for the shortest
// witness over all sequences.
func (ev *evaluator) summarySearch(pv *pinned, a *arena, grp *targetGroup, left int, w answers, st *solveTiming) {
	if left == 0 {
		return
	}
	remaining := left
	for si, plan := range ev.s.seqPlans() {
		if remaining == 0 && !w.shortest {
			break // skip later sequences' co-reachability builds
		}
		ss := ev.acquireSummary(pv, a, plan, si, grp.y, w.shortest, st)
		ss.existsOnly = w.existsOnly()
		k0 := ev.clock()
		for j, x := range grp.xs[:left] {
			best := w.get(grp.idx[j])
			if best.Found && !w.shortest {
				continue
			}
			if res := ss.run(x); res.Found && (!best.Found || res.Path.Len() < best.Path.Len()) {
				w.set(grp.idx[j], res)
				remaining--
			}
		}
		ev.observeKernel(k0, st)
		ss.release()
	}
}

// solveOne answers the single query (x, y) as a target group of one,
// built on the stack: existence only when exists, a shortest path when
// shortest. x and y must be valid vertices of pv's view.
func (ev *evaluator) solveOne(pv *pinned, x, y int, exists, shortest bool, st *solveTiming) Result {
	xs, idx := [1]int{x}, [1]int{}
	var out [1]Result
	var found [1]bool
	w := answers{out: out[:], shortest: shortest}
	if exists {
		w = answers{found: found[:]}
	}
	a := getArena()
	ev.solveGroup(pv, a, &targetGroup{y: y, xs: xs[:], idx: idx[:]}, w, st)
	a.release()
	return w.get(0)
}

// clock reads the time for a stage interval, or returns the zero time
// (without reading the clock) when nothing records stages.
func (ev *evaluator) clock() time.Time {
	if ev.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeKernel / observeTable credit the interval since t0 to the
// stage histogram and, when tracing, the per-query sink.
func (ev *evaluator) observeKernel(t0 time.Time, st *solveTiming) {
	if ev.met == nil {
		return
	}
	d := time.Since(t0)
	ev.met.stageKernel.ObserveDuration(d)
	if st != nil {
		st.kernelNs += d.Nanoseconds()
	}
}

func (ev *evaluator) observeTable(t0 time.Time, st *solveTiming) {
	if ev.met == nil {
		return
	}
	d := time.Since(t0)
	ev.met.stageTable.ObserveDuration(d)
	if st != nil {
		st.tableNs += d.Nanoseconds()
	}
}

// sinks are what every sweep of this evaluator reports to: the kernel
// telemetry and, when tracing, the per-query trace sink.
func (ev *evaluator) sinks(st *solveTiming) sinks {
	sk := sinks{counts: ev.counts}
	if st != nil {
		sk.tr = st.kt
	}
	return sk
}

// product builds the product over a pinned view, wired to the
// evaluator's sinks.
func (ev *evaluator) product(pv *pinned, a *arena, st *solveTiming) product {
	p := makeProduct(pv.vw, ev.s.Min, a)
	p.sinks = ev.sinks(st)
	return p
}

// table kinds, part of tableKey so the three tiers share one cache.
const (
	tableCo   uint8 = iota // product co-reachability bitset (subword/DAG existence)
	tableGoal              // backward-BFS distances (every tier but finite)
	tableSeq               // summary per-sequence position-NFA bitset
)

// tableKey names one per-target pruning table: the graph generation it
// was built under, the language, the target and — for the summary tier —
// the Ψtr sequence index.
type tableKey struct {
	epoch uint64
	lang  uint64
	y     int32
	seq   int32 // sequence index (summary tier), -1 otherwise
	kind  uint8
}

func (ev *evaluator) tableKey(pv *pinned, y, seq int, kind uint8) tableKey {
	return tableKey{epoch: pv.epoch, lang: ev.s.id, y: int32(y), seq: int32(seq), kind: kind}
}

// resultKey names one cached answer. Existence-only answers are cached
// under their own keys so a witness-less result can never be returned
// to a caller that asked for a path.
type resultKey struct {
	epoch  uint64
	lang   uint64
	x, y   int32
	exists bool
}

// cachedResult consults the result cache. A full result satisfies an
// existence-only ask; the reverse never happens because existence-only
// answers live under their own keys.
func (ev *evaluator) cachedResult(epoch uint64, x, y int, existsOnly bool) (Result, bool) {
	if ev.results == nil {
		return Result{}, false
	}
	k := resultKey{epoch: epoch, lang: ev.s.id, x: int32(x), y: int32(y)}
	if res, ok := ev.results.Get(k); ok {
		return res, true
	}
	if existsOnly {
		k.exists = true
		if res, ok := ev.results.Get(k); ok {
			return res, true
		}
	}
	return Result{}, false
}

func (ev *evaluator) storeResult(epoch uint64, x, y int, existsOnly bool, res Result) {
	k := resultKey{epoch: epoch, lang: ev.s.id, x: int32(x), y: int32(y), exists: existsOnly}
	ev.results.Put(k, res, resultCost(res))
}

// resultCost estimates the footprint of one cached Result: key, entry
// bookkeeping, and the witness path when present.
func resultCost(res Result) int64 {
	c := int64(96)
	if res.Path != nil {
		c += int64(len(res.Path.Vertices))*8 + int64(len(res.Path.Labels)) + 48
	}
	return c
}

// coTable is an immutable product co-reachability table (a bitset over
// dense product ids), the frozen form of what a mark-only sweep (the
// walk tiers' existence sweep, the summary tier's position-NFA sweep)
// leaves in a.co. Safe for concurrent readers.
type coTable struct {
	bits []uint64
}

func (t *coTable) set(i int)      { t.bits[i>>6] |= 1 << (uint(i) & 63) }
func (t *coTable) has(i int) bool { return t.bits[i>>6]>>(uint(i)&63)&1 == 1 }
func (t *coTable) cost() int64    { return coTableCost(len(t.bits) << 6) }

// coTableCost is the byte footprint of a coTable over n dense ids,
// computable before the table is built (see cache.Retainable).
func coTableCost(n int) int64 { return int64((n+63)>>6)*8 + 48 }

// exportCoTable freezes the visited set co.
func exportCoTable(co visited) *coTable {
	t := &coTable{bits: make([]uint64, (co.n*co.m+63)>>6)}
	co.each(t.set)
	return t
}

// goalTable is the frozen result of one backward product BFS toward an
// accepting (y, ·) goal: the distance of every reached product state.
// It answers existence by one lookup, and a shortest walk from any
// source is read off it over the querying view (product.walkFrom): the
// table cache key carries the epoch, so a query that hits the table has
// pinned a view of the same edges as the one it was swept on. Safe for
// concurrent readers.
//
// It is kept in one of two forms, chosen by exportGoalTable by which
// retains fewer bytes for what the sweep reached; consumers see only
// distAt.
//
//	dense   ids == nil. dist is indexed by product id, -1 where
//	        unreached. 4 B per PRODUCT id, whatever the sweep touched.
//	sparse  ids holds the reached product ids in ascending order and
//	        dist runs parallel to it, so a lookup is one binary search.
//	        8 B per REACHED id.
type goalTable struct {
	ids    []int32
	dist   []int32
	m      int // DFA states: product id v·m + q
	states int // product states the sweep reached
}

// goalTableCost and sparseGoalTableCost are the byte footprints of the
// two forms, over nm product ids and r reached ids; both are computable
// before the table is built (see cache.Retainable).
func goalTableCost(nm int) int64      { return int64(nm)*4 + 72 }
func sparseGoalTableCost(r int) int64 { return int64(r)*8 + 96 }

func (t *goalTable) cost() int64 {
	if t.ids != nil {
		return sparseGoalTableCost(len(t.ids))
	}
	return goalTableCost(len(t.dist))
}

// exportCost is the cost of the table exportGoalTable would freeze from
// the arena's current distToGoal output, which reached r states.
func exportCost(a *arena, r int) int64 {
	return min(sparseGoalTableCost(r), goalTableCost(a.co.n*a.co.m))
}

// exportGoalTable freezes the arena's distToGoal output, which reached r
// states, in the form that retains fewer bytes: sparse below a fill of
// about 1/2, so a short miss costs O(reached) instead of O(V·|Q|), and
// dense above it.
func exportGoalTable(a *arena, r int) *goalTable {
	if sparseGoalTableCost(r) < goalTableCost(a.co.n*a.co.m) {
		return newSparseGoalTable(a, r)
	}
	return newDenseGoalTable(a)
}

func newDenseGoalTable(a *arena) *goalTable {
	t := &goalTable{dist: make([]int32, a.co.n*a.co.m), m: a.co.m}
	for i := range t.dist {
		t.dist[i] = -1
	}
	a.co.each(func(id int) {
		t.dist[id] = a.dist[id]
		t.states++
	})
	return t
}

// newSparseGoalTable freezes the r reached ids only. A sweep that kept
// its dirty list lists them from its words, which are then sorted; any
// other sweep scans every visited word vertex by vertex, lane by lane,
// which yields them in ascending order.
func newSparseGoalTable(a *arena, r int) *goalTable {
	co := a.co
	words := make([]int32, 2*r)
	t := &goalTable{ids: words[:0:r], dist: words[r:], m: co.m, states: r}
	if a.dirtyOK {
		for _, kv := range a.dirty {
			t.ids = co.appendIDs(t.ids, int(kv))
		}
		slices.Sort(t.ids)
	} else {
		for v := 0; v < co.n; v++ {
			for kv := v; kv < len(co.w); kv += co.n {
				if co.w[kv] != 0 {
					t.ids = co.appendIDs(t.ids, kv)
				}
			}
		}
	}
	for i, id := range t.ids {
		t.dist[i] = a.dist[id]
	}
	return t
}

// distAt returns the distance of (v, q) to the goal, -1 when the sweep
// never reached it.
func (t *goalTable) distAt(v, q int) int32 {
	id := v*t.m + q
	if t.ids == nil {
		return t.dist[id]
	}
	if i, ok := slices.BinarySearch(t.ids, int32(id)); ok {
		return t.dist[i]
	}
	return -1
}

// acquireSummary readies a summary searcher for (sequence si, target
// y), feeding its co-reachability table from — and back to — the table
// cache. On a table miss the co-reachability sweep runs inside the
// acquire, into a.co, and is timed as kernel; the cache traffic around
// it is timed as table.
func (ev *evaluator) acquireSummary(pv *pinned, a *arena, plan *seqPlan, si, y int, shortest bool, st *solveTiming) *seqSearcher {
	key := ev.tableKey(pv, y, si, tableSeq)
	t0 := ev.clock()
	var ext *coTable
	if ev.tables != nil {
		if v, ok := ev.tables.Get(key); ok {
			ext = v.(*coTable)
		}
	}
	ev.observeTable(t0, st)
	if st != nil {
		st.tableHit = st.tableHit || ext != nil
	}
	k0 := ev.clock()
	ss := acquireSeqSearcher(pv.vw, a, plan, y, shortest, ext, ev.sinks(st))
	if ext == nil {
		ev.observeKernel(k0, st)
		if ev.tables != nil && ev.tables.Retainable(coTableCost(ss.n*ss.m)) {
			t1 := ev.clock()
			t := exportCoTable(a.co)
			ev.tables.Put(key, t, t.cost())
			ev.observeTable(t1, st)
		}
	}
	return ss
}

// goalView is the y-side backward-BFS distances in whichever form is
// cheapest — a cached immutable goalTable, or, when there is no table
// cache or the table would be rejected on arrival, the arena's raw
// distToGoal output with no export copy — and the product over the
// query's pinned view that walks are read over.
type goalView struct {
	p  product
	ds distances

	// stopped: the sweep stopped once the sources it was given were
	// answered, so ds answers those sources only.
	stopped bool
}

// goalViewFor returns the backward-BFS view for target y, serving the
// cached table on hit. On a miss the sweep stops once sources xs are
// answered and serves them from the arena; a sweep that ran to the end —
// some source unreachable — is exported and cached when retainable. The
// BFS is timed as kernel, the cache traffic as table.
func (ev *evaluator) goalViewFor(pv *pinned, a *arena, y int, xs []int, st *solveTiming) goalView {
	t0 := ev.clock()
	if t := ev.cachedGoalTable(pv, y); t != nil {
		ev.observeTable(t0, st)
		st.noteGoalTable(t, true)
		return goalView{p: ev.product(pv, a, st), ds: t}
	}
	return ev.sweepGoal(pv, a, y, xs, st)
}

// sweepGoal is goalViewFor's miss: the backward sweep toward y, stopped
// once sources xs are answered, exported and cached when it ran to the
// end and is retainable.
func (ev *evaluator) sweepGoal(pv *pinned, a *arena, y int, xs []int, st *solveTiming) goalView {
	p := ev.product(pv, a, st)
	k0 := ev.clock()
	stopped := p.sweep(y, a, true, xs)
	ev.observeKernel(k0, st)
	if stopped || ev.tables == nil {
		return goalView{p: p, ds: a, stopped: stopped}
	}
	t1 := ev.clock()
	r := a.reachedCount()
	if !ev.tables.Retainable(exportCost(a, r)) {
		ev.observeTable(t1, st)
		return goalView{p: p, ds: a}
	}
	t := exportGoalTable(a, r)
	ev.tables.Put(ev.tableKey(pv, y, -1, tableGoal), t, t.cost())
	ev.observeTable(t1, st)
	st.noteGoalTable(t, false)
	return goalView{p: p, ds: t}
}

// answerGoal reads one source's witness off the y-side view: its
// shortest walk, which is simple on both tiers that ask — on a DAG every
// walk is, and under subword closure a loop would leave a shorter
// L-labeled walk (TierFor sends no other language to AlgoSubword).
func (ev *evaluator) answerGoal(v *goalView, x int) Result {
	return pathResult(v.p.walkFrom(v.ds, x, ev.s.Min.Start))
}

// cachedGoalTable returns target y's cached backward-BFS table, nil on
// miss (without computing one).
func (ev *evaluator) cachedGoalTable(pv *pinned, y int) *goalTable {
	if ev.tables == nil {
		return nil
	}
	if v, ok := ev.tables.Get(ev.tableKey(pv, y, -1, tableGoal)); ok {
		return v.(*goalTable)
	}
	return nil
}

// cachedCoTable returns target y's cached product co-reachability
// table, nil on miss (without computing one); a hit is timed as table.
func (ev *evaluator) cachedCoTable(pv *pinned, y int, st *solveTiming) *coTable {
	if ev.tables == nil {
		return nil
	}
	t0 := ev.clock()
	v, ok := ev.tables.Get(ev.tableKey(pv, y, -1, tableCo))
	if !ok {
		return nil
	}
	ev.observeTable(t0, st)
	if st != nil {
		st.tableHit = true
	}
	return v.(*coTable)
}

// sweepCoTable computes the product co-reachability table for target y
// and caches it when retainable, or returns nil with the table left in
// the arena (a.co). Given sources xs the sweep stops once they are
// answered, and a stopped sweep is no table: its answers stay in a.co.
// The sweep is timed as kernel, the cache traffic as table.
func (ev *evaluator) sweepCoTable(pv *pinned, p *product, a *arena, y int, xs []int, st *solveTiming) *coTable {
	k0 := ev.clock()
	stopped := p.sweep(y, a, false, xs)
	ev.observeKernel(k0, st)
	nm := p.n * p.m
	if stopped || ev.tables == nil || !ev.tables.Retainable(coTableCost(nm)) {
		return nil
	}
	t1 := ev.clock()
	t := exportCoTable(a.co)
	ev.tables.Put(ev.tableKey(pv, y, -1, tableCo), t, t.cost())
	ev.observeTable(t1, st)
	return t
}
