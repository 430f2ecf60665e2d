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
// per-batch grouping index and whatever the caches retain. On a sharded
// graph the two parallelism axes compose: groups fan out over this
// pool, and each group's backward BFS additionally runs as a frontier
// exchange over the shards (shardbfs.go).

// Pair is one (source, target) query of a batch.
type Pair struct {
	X, Y int
}

// pinned is one consistent pinned view of the graph: the snapshot view
// (base CSR plus any pending-delta overlay, carrying the shard count
// when sharding is configured), the epoch it was pinned under, and the
// dispatch verdict. It is immutable; a mutation makes the next query
// pin a fresh one — WITHOUT freezing, when the delta is small enough
// for an overlay (graph.View), so mutations never stall reads on a
// refreeze and never invalidate in-flight queries (which keep their
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
			// reads its shortest walk off the successor links.
			v := ev.goalViewFor(pv, a, grp.y, grp.xs, st)
			for j, x := range grp.xs {
				w.set(grp.idx[j], ev.answerGoal(v, pv.algo, x))
			}
			break
		}
		// Existence needs no successor links — (x, start) reaches the goal
		// iff it is co-reachable, and that is the answer: on DAGs every
		// walk is simple, and under subword closure loop removal lands
		// back in the language. So absent a cached goal table (left by
		// earlier witness queries on this target) the group is answered
		// by the mark-only coReach sweep (bit-parallel when the DFA packs
		// into a word) instead of the heavier link-recording distToGoal,
		// sharing the baseline tier's co tables. Either sweep stops once
		// the group's sources are answered (goalProbe).
		t0 := ev.clock()
		gt := ev.cachedGoalTable(pv, grp.y)
		ev.observeTable(t0, st)
		if gt != nil {
			st.noteGoalTable(gt, true)
			for j, x := range grp.xs {
				w.set(grp.idx[j], Result{Found: gt.reached(x*d.NumStates + d.Start)})
			}
			break
		}
		p := ev.product(pv, a, st)
		ct := ev.coTableFor(pv, &p, a, grp.y, grp.xs, st)
		for j, x := range grp.xs {
			id := p.id(x, d.Start)
			if ct != nil {
				w.set(grp.idx[j], Result{Found: ct.has(id)})
			} else {
				w.set(grp.idx[j], Result{Found: a.co.has(id)})
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
	tableGoal              // subword/DAG backward-BFS dist + successors
	tableSeq               // summary per-sequence position-NFA bitset
)

// tableKey names one per-target pruning table: the graph generation it
// was built under, the language, the target, the snapshot partition it
// was built from (reconfiguring the shard count must not alias an old
// table, and a shared cache may serve engines with different
// partitions), and — for the summary tier — the Ψtr sequence index.
type tableKey struct {
	epoch  uint64
	lang   uint64
	y      int32
	seq    int32 // sequence index (summary tier), -1 otherwise
	shards uint16
	kind   uint8
}

func (ev *evaluator) tableKey(pv *pinned, y, seq int, kind uint8) tableKey {
	return tableKey{epoch: pv.epoch, lang: ev.s.id, y: int32(y), seq: int32(seq), shards: uint16(partition(pv.vw).K), kind: kind}
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

func newCoTable(n int) *coTable { return &coTable{bits: make([]uint64, (n+63)>>6)} }

func (t *coTable) set(i int)      { t.bits[i>>6] |= 1 << (uint(i) & 63) }
func (t *coTable) has(i int) bool { return t.bits[i>>6]>>(uint(i)&63)&1 == 1 }
func (t *coTable) cost() int64    { return coTableCost(len(t.bits) << 6) }

// coTableCost is the byte footprint of a coTable over n dense ids,
// computable before the table is built (see cache.Retainable).
func coTableCost(n int) int64 { return int64((n+63)>>6)*8 + 48 }

// exportCoTable freezes the set s over n dense ids.
func exportCoTable(s *stamped, n int) *coTable {
	t := newCoTable(n)
	for i := 0; i < n; i++ {
		if s.has(i) {
			t.set(i)
		}
	}
	return t
}

// goalTable is the frozen result of one backward product BFS toward an
// accepting (y, ·) goal: for every reached product state its distance,
// the successor one step closer to the goal and the label of that step.
// It answers existence by one lookup and yields a shortest walk from any
// source in O(walk length). Safe for concurrent readers.
//
// It is kept in one of two forms, chosen by exportGoalTable from how
// much of the product the sweep reached (sparseFill); consumers see only
// reached and walkFrom.
//
//	dense   ids == nil. The three arrays are indexed by product id,
//	        dist is -1 where unreached, parent is a product id.
//	        9 B per PRODUCT id, whatever the sweep touched.
//	sparse  ids holds the reached product ids in ascending order, the
//	        three arrays run parallel to it, and parent is an INDEX into
//	        ids — so a walk costs one binary search, then O(length).
//	        13 B per REACHED id.
type goalTable struct {
	ids    []int32
	dist   []int32
	parent []int32
	plabel []byte
	states int // product states the sweep reached
}

// goalTableCost and sparseGoalTableCost are the byte footprints of the
// two forms, over nm product ids and r reached ids; both are computable
// before the table is built (see cache.Retainable).
func goalTableCost(nm int) int64      { return int64(nm)*9 + 72 }
func sparseGoalTableCost(r int) int64 { return int64(r)*13 + 96 }

func (t *goalTable) cost() int64 {
	if t.ids != nil {
		return sparseGoalTableCost(len(t.ids))
	}
	return goalTableCost(len(t.dist))
}

// exportCost is the cost of the table exportGoalTable would freeze from
// the arena's current distToGoal output.
func exportCost(p *product, a *arena) int64 {
	if a.reachOK {
		return sparseGoalTableCost(len(a.reach))
	}
	return goalTableCost(p.n * p.m)
}

// exportGoalTable freezes the arena's distToGoal output: sparse when the
// sweep was short enough to keep its reach list, so a miss costs
// O(reached) instead of O(V·|Q|); dense otherwise.
func exportGoalTable(p *product, a *arena) *goalTable {
	if a.reachOK {
		return newSparseGoalTable(a)
	}
	return newDenseGoalTable(p, a)
}

func newDenseGoalTable(p *product, a *arena) *goalTable {
	nm := p.n * p.m
	t := &goalTable{
		dist:   make([]int32, nm),
		parent: make([]int32, nm),
		plabel: make([]byte, nm),
	}
	for i := 0; i < nm; i++ {
		if a.dst.has(i) {
			t.dist[i] = a.dist[i]
			t.parent[i] = a.parent[i]
			t.plabel[i] = a.plabel[i]
			t.states++
		} else {
			t.dist[i] = -1
		}
	}
	return t
}

// newSparseGoalTable freezes the reached ids only, from the arena's
// (valid) reach list. Successor links are re-expressed as rows of the
// sorted id array; to translate them without a search per link, each
// reached id's row is parked in a.dist — whose value the table has
// just copied — for the duration of the build and the distances are put
// back before returning. Goal states (dist 0) have no successor.
func newSparseGoalTable(a *arena) *goalTable {
	r := len(a.reach)
	words := make([]int32, 3*r)
	t := &goalTable{
		ids:    words[:r:r],
		dist:   words[r : 2*r : 2*r],
		parent: words[2*r:],
		plabel: make([]byte, r),
		states: r,
	}
	copy(t.ids, a.reach)
	slices.Sort(t.ids)
	for i, id := range t.ids {
		t.dist[i], a.dist[id] = a.dist[id], int32(i)
	}
	for i, id := range t.ids {
		if t.dist[i] > 0 {
			t.parent[i] = a.dist[a.parent[id]]
			t.plabel[i] = a.plabel[id]
		}
	}
	for i, id := range t.ids {
		a.dist[id] = t.dist[i]
	}
	return t
}

// slot returns the row of product id in the table's arrays, -1 when the
// sweep never reached it.
func (t *goalTable) slot(id int) int {
	if t.ids != nil {
		if i, ok := slices.BinarySearch(t.ids, int32(id)); ok {
			return i
		}
		return -1
	}
	if t.dist[id] < 0 {
		return -1
	}
	return id
}

// reached reports whether some L-suffix walk leads from product id to
// the goal.
func (t *goalTable) reached(id int) bool { return t.slot(id) >= 0 }

// walkFrom reads a shortest L-labeled walk from x off the frozen
// successor links — the cached-table analogue of sharedWalkFrom — or
// nil when no walk exists. m is the DFA state count, start its start
// state.
func (t *goalTable) walkFrom(x, start, m int) *graph.Path {
	i := t.slot(x*m + start)
	if i < 0 {
		return nil
	}
	vs := make([]int, 0, t.dist[i]+1)
	ls := make([]byte, 0, t.dist[i])
	vs = append(vs, x)
	for t.dist[i] > 0 {
		ls = append(ls, t.plabel[i])
		i = int(t.parent[i])
		id := i
		if t.ids != nil {
			id = int(t.ids[i])
		}
		vs = append(vs, id/m)
	}
	return &graph.Path{Vertices: vs, Labels: ls}
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
		if n := ss.n * ss.m; ev.tables != nil && ev.tables.Retainable(coTableCost(n)) {
			t1 := ev.clock()
			t := exportCoTable(&a.co, n)
			ev.tables.Put(key, t, t.cost())
			ev.observeTable(t1, st)
		}
	}
	return ss
}

// goalView is the y-side backward-BFS table in whichever form is
// cheapest: a cached immutable goalTable, or — when there is no table
// cache or the table would be rejected on arrival — the arena's raw
// distToGoal output, with no export copy.
type goalView struct {
	t *goalTable
	p product // valid when t == nil; arena holds the BFS output
	a *arena
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
		return goalView{t: t}
	}
	p := ev.product(pv, a, st)
	k0 := ev.clock()
	stopped := p.sweep(y, a, true, xs)
	ev.observeKernel(k0, st)
	if stopped || ev.tables == nil || !ev.tables.Retainable(exportCost(&p, a)) {
		return goalView{p: p, a: a}
	}
	t1 := ev.clock()
	t := exportGoalTable(&p, a)
	ev.tables.Put(ev.tableKey(pv, y, -1, tableGoal), t, t.cost())
	ev.observeTable(t1, st)
	st.noteGoalTable(t, false)
	return goalView{t: t}
}

// answerGoal reads one source's witness off the y-side view, applying
// the subword tier's loop removal.
func (ev *evaluator) answerGoal(v goalView, algo Algorithm, x int) Result {
	d := ev.s.Min
	var walk *graph.Path
	if v.t != nil {
		walk = v.t.walkFrom(x, d.Start, d.NumStates)
	} else {
		walk = v.p.sharedWalkFrom(v.a, x)
	}
	if walk == nil {
		return Result{}
	}
	if algo == AlgoSubword {
		simple := walk.RemoveLoops()
		if simple != walk && !d.Member(simple.Word()) {
			// Cannot happen for genuinely subword-closed languages (and a
			// walk that lost nothing already ended in an accepting state).
			return Result{}
		}
		walk = simple
	}
	return Result{Found: true, Path: walk}
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
	t := exportCoTable(&a.co, nm)
	ev.tables.Put(key, t, t.cost())
	ev.observeTable(t1, st)
	return t
}
