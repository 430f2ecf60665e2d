package rspq

import (
	"math/bits"
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
// coReach for the exponential baseline, the backward product BFS
// (distToGoal) for the walk-reduction tiers, the position-NFA
// co-reachability table for the Ψtr summary solver. Queries over one
// language therefore group naturally by y: the table is obtained once
// per group and every source in the group is answered against it.
//
// BatchSolver and Engine are both this evaluator. They differ only in
// where tables and answers live: a BatchSolver keeps tables in the
// worker's arena for the duration of one group and retains nothing; an
// Engine feeds both to epoch-keyed caches so they survive across
// queries and batches. A single Engine query is a group of one, built
// on the caller's stack.
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
// starts out as "no path".
type answers struct {
	out   []Result
	found []bool
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
		// No y-side table to share: each word probe is a bounded DFS
		// from x over the solver's precomputed word list.
		k0 := ev.clock()
		for j, x := range grp.xs {
			w.set(grp.idx[j], finiteWithWords(pv.vw, ev.s.words, x, grp.y))
		}
		ev.observeKernel(k0, st)
	case AlgoSubword, AlgoDAG:
		if !w.existsOnly() {
			// One backward product BFS serves the group: every source
			// reads its shortest walk off the distances.
			v := ev.goalViewFor(pv, a, grp.y, grp.xs, st)
			for j, x := range grp.xs {
				w.set(grp.idx[j], ev.answerGoal(&v, pv.algo, x))
			}
			break
		}
		// Existence needs no distances — (x, start) reaches the goal iff
		// it is co-reachable, and that is the answer: on DAGs every walk
		// is simple, and under subword closure loop removal lands back in
		// the language. So absent a cached goal table (left by earlier
		// witness queries on this target) the group is answered by the
		// mark-only coReach sweep instead of distToGoal, sharing the
		// baseline tier's co tables. Either sweep stops once
		// the group's sources are answered (goalProbe).
		t0 := ev.clock()
		gt := ev.cachedGoalTable(pv, grp.y)
		ev.observeTable(t0, st)
		if gt != nil {
			st.noteGoalTable(gt, true)
			for j, x := range grp.xs {
				w.set(grp.idx[j], Result{Found: gt.distAt(x, d.Start) >= 0})
			}
			break
		}
		p := ev.product(pv, a, st)
		ct := ev.coTableFor(pv, &p, a, grp.y, grp.xs, st)
		for j, x := range grp.xs {
			if ct != nil {
				w.set(grp.idx[j], Result{Found: ct.has(p.id(x, d.Start))})
			} else {
				w.set(grp.idx[j], Result{Found: a.co.at(x, d.Start)})
			}
		}
	case AlgoSummary:
		// Each Ψtr sequence's position-NFA co-reachability table depends
		// only on the view and y: one pooled searcher per (sequence,
		// target) runs once per source that is still unanswered.
		remaining := len(grp.xs)
		for si, plan := range ev.s.seqPlans() {
			if remaining == 0 {
				break // skip later sequences' co-reachability builds
			}
			ss := ev.acquireSummary(pv, a, plan, si, grp.y, st)
			ss.existsOnly = w.existsOnly()
			k0 := ev.clock()
			for j, x := range grp.xs {
				if w.get(grp.idx[j]).Found {
					continue
				}
				if res := ss.run(x); res.Found {
					w.set(grp.idx[j], res)
					remaining--
				}
			}
			ev.observeKernel(k0, st)
			ss.release()
		}
	default:
		// The exponential tier backtracks per source against one
		// co-reachability pruning table, which must be complete: its
		// sweep gets no sources. The existence bit needs the same search
		// (co-reachability alone ignores simplicity).
		p := ev.product(pv, a, st)
		ct := ev.coTableFor(pv, &p, a, grp.y, nil, st)
		k0 := ev.clock()
		for j, x := range grp.xs {
			w.set(grp.idx[j], baselineWith(&p, a, d, ct, x, grp.y, nil))
		}
		ev.observeKernel(k0, st)
	}
	if ev.results != nil {
		for j, x := range grp.xs {
			ev.storeResult(pv.epoch, x, grp.y, w.existsOnly(), w.get(grp.idx[j]))
		}
	}
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
	tableCo   uint8 = iota // baseline product co-reachability bitset
	tableGoal              // subword/DAG backward-BFS distances
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
// dense product ids), the frozen form of what a mark-only sweep
// (coReach, the summary tier's position-NFA sweep) leaves in a.co. Safe
// for concurrent readers.
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
// It is kept in one of two forms, chosen by exportGoalTable from how
// much of the product the sweep reached (sparseFill); consumers see only
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
// the arena's current distToGoal output.
func exportCost(a *arena) int64 {
	if a.dirtyOK {
		return sparseGoalTableCost(a.reachedCount())
	}
	return goalTableCost(a.co.n * a.co.m)
}

// exportGoalTable freezes the arena's distToGoal output: sparse when the
// sweep was short enough to keep its dirty list, so a miss costs
// O(reached) instead of O(V·|Q|); dense otherwise.
func exportGoalTable(a *arena) *goalTable {
	if a.dirtyOK {
		return newSparseGoalTable(a)
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

// newSparseGoalTable freezes the reached ids only, from the words on the
// arena's (valid) dirty list.
func newSparseGoalTable(a *arena) *goalTable {
	co, r := a.co, a.reachedCount()
	words := make([]int32, 2*r)
	t := &goalTable{ids: words[:0:r], dist: words[r:], m: co.m, states: r}
	for _, kv := range a.dirty {
		v, k := int(kv)%co.n, int(kv)/co.n
		for w, base := co.w[kv], v*co.m+64*k; w != 0; w &= w - 1 {
			t.ids = append(t.ids, int32(base+bits.TrailingZeros64(w)))
		}
	}
	slices.Sort(t.ids)
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
func (ev *evaluator) acquireSummary(pv *pinned, a *arena, plan *seqPlan, si, y int, st *solveTiming) *seqSearcher {
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
	ss := acquireSeqSearcher(pv.vw, a, plan, y, false, ext, ev.sinks(st))
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
}

// goalViewFor returns the backward-BFS view for target y, serving the
// cached table on hit. On a miss the sweep stops once sources xs are
// answered and serves them from the arena; a sweep that ran to the end —
// some source unreachable — is exported and cached when retainable. The
// BFS is timed as kernel, the cache traffic as table.
func (ev *evaluator) goalViewFor(pv *pinned, a *arena, y int, xs []int, st *solveTiming) goalView {
	t0 := ev.clock()
	p := ev.product(pv, a, st)
	if t := ev.cachedGoalTable(pv, y); t != nil {
		ev.observeTable(t0, st)
		st.noteGoalTable(t, true)
		return goalView{p: p, ds: t}
	}
	k0 := ev.clock()
	stopped := p.sweep(y, a, true, xs)
	ev.observeKernel(k0, st)
	if stopped || ev.tables == nil || !ev.tables.Retainable(exportCost(a)) {
		return goalView{p: p, ds: a}
	}
	t1 := ev.clock()
	t := exportGoalTable(a)
	ev.tables.Put(ev.tableKey(pv, y, -1, tableGoal), t, t.cost())
	ev.observeTable(t1, st)
	st.noteGoalTable(t, false)
	return goalView{p: p, ds: t}
}

// answerGoal reads one source's witness off the y-side view, applying
// the subword tier's loop removal.
func (ev *evaluator) answerGoal(v *goalView, algo Algorithm, x int) Result {
	walk := v.p.walkFrom(v.ds, x, ev.s.Min.Start)
	if algo == AlgoSubword {
		walk = loopFree(ev.s.Min, walk)
	}
	return pathResult(walk)
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

// coTableFor returns the product co-reachability table for target y —
// cached on hit, freshly cached on miss when retainable, or nil with
// the table left in the arena (a.co). Given sources xs the sweep stops
// once they are answered, and a stopped sweep is no table: its answers
// stay in a.co. The sweep is timed as kernel, the cache traffic as
// table.
func (ev *evaluator) coTableFor(pv *pinned, p *product, a *arena, y int, xs []int, st *solveTiming) *coTable {
	key := ev.tableKey(pv, y, -1, tableCo)
	t0 := ev.clock()
	if ev.tables != nil {
		if v, ok := ev.tables.Get(key); ok {
			ev.observeTable(t0, st)
			if st != nil {
				st.tableHit = true
			}
			return v.(*coTable)
		}
	}
	k0 := ev.clock()
	stopped := p.sweep(y, a, false, xs)
	ev.observeKernel(k0, st)
	nm := p.n * p.m
	if stopped || ev.tables == nil || !ev.tables.Retainable(coTableCost(nm)) {
		return nil
	}
	t1 := ev.clock()
	t := exportCoTable(a.co)
	ev.tables.Put(key, t, t.cost())
	ev.observeTable(t1, st)
	return t
}
