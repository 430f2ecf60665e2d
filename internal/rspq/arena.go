package rspq

import (
	"math/bits"
	"sync"
)

// This file implements the reusable search scratch shared by the
// product-based solvers. Every query needs a handful of dense arrays
// sized by the product |V|·|Q| (visited sets, BFS distances, parent
// links) that the seed implementation allocated fresh per call. The
// arena keeps them pooled (sync.Pool, so concurrent queries each get
// their own) and epoch-stamped: membership of id i means mark[i] equals
// the current epoch, so "clearing" a set is one counter increment
// instead of an O(|V|·|Q|) memset. Steady-state queries on a warm
// Solver therefore run allocation-free until a witness path is
// materialized.

// stamped is an epoch-stamped membership set over dense int ids.
type stamped struct {
	epoch uint32
	mark  []uint32
}

// reset prepares the set for n ids, dropping all members in O(1)
// (amortized: growing or an epoch wrap clears the backing array).
func (s *stamped) reset(n int) {
	if cap(s.mark) < n {
		s.mark = make([]uint32, n)
	}
	s.mark = s.mark[:n]
	s.epoch++
	if s.epoch == 0 { // wrapped after 2^32 resets: scrub and restart
		// Scrub the full capacity: spare capacity beyond n may hold
		// pre-wrap marks that would alias a future epoch.
		clear(s.mark[:cap(s.mark)])
		s.epoch = 1
	}
}

func (s *stamped) has(i int) bool { return s.mark[i] == s.epoch }
func (s *stamped) add(i int)      { s.mark[i] = s.epoch }

// remove drops i from the set (epochs start at 1, so 0 never matches).
func (s *stamped) remove(i int) { s.mark[i] = 0 }

// arena bundles the scratch buffers of one in-flight query. Slices only
// ever grow; the zero value is ready to use.
type arena struct {
	co     stamped  // product co-reachability (coReach)
	seen   stamped  // visited set (product ids or vertex ids)
	dst    stamped  // validity stamps for dist
	dist   []int32  // BFS distances, valid where dst holds
	parent []int32  // BFS/DFS parent links, valid where seen/dst holds
	plabel []byte   // labels of the parent links
	queue  []int32  // BFS worklist (forward walk search)
	w64    []uint64 // packed lane-vertex state words (the sweep)
	w64Hot int      // leading words of w64 a sweep may have left non-zero
	vs     []int    // path vertex scratch
	ls     []byte   // path label scratch
	lmap   []int16  // CSR label id -> DFA alphabet index (-1 absent)

	// The backward sweep's scratch: the frontier lists and the sources a
	// product sweep probes (goalProbe).
	lv   frontier
	srcs []int32

	// reach lists the ids the last sweep with links stamped in dst, each
	// once, in no particular order — what lets the consumers of a short
	// sweep (exportGoalTable) pay for what the sweep touched instead of
	// for the id space. It is valid only while reachOK: a sweep that
	// outgrows reachMax abandons it.
	reach    []int32
	reachOK  bool
	reachMax int

	// dirty lists the lane-vertex words the running sweep turned
	// non-zero, each once, so that a short sweep zeroes them itself
	// (cleanWords). It is valid only while dirtyOK: a sweep that outgrows
	// dirtyMax abandons it.
	dirty    []int32
	dirtyOK  bool
	dirtyMax int
}

// sparseFill is the fill up to which a sweep counts as short: it reached
// at most 1/sparseFill of the product ids. The one criterion serves both
// per-miss savings — the goal table is frozen in its sparse form, and
// the packed words are cleaned from the dirty list — and it is placed
// between the break-even points of the two goal-table forms
// (goalTableCost, sparseGoalTableCost). In retained bytes, 13 B per
// reached id against 9 B per product id, the sparse form wins up to a
// fill of 9/13. In export time, a sort and three linear passes (~85 ns
// per reached id) against allocating, zeroing and scanning the id space
// (2–4 ns per product id with the allocator warm, 9 ns measured in a
// serving process that has to fault the 9·nm bytes in and collect them
// later), it wins up to a fill between 1/40 and 1/9. At 1/8 the sparse
// table is 5.5× smaller — what a byte-budgeted cache with 4 MiB shards
// cares about — and its export is level with the dense one where it
// counts, in the server, and ~3× the dense one's best case.
const sparseFill = 8

// beginSweep readies the outputs of a backward sweep over nm product
// ids and returns its visited set: a.co for a mark-only sweep; with
// links a.dst, with the dist/parent/plabel arrays sized and the reach
// list started.
func (a *arena) beginSweep(nm int, links bool) *stamped {
	marks := &a.co
	if links {
		marks = &a.dst
		a.growProduct(nm)
		a.reach, a.reachOK, a.reachMax = a.reach[:0], true, nm/sparseFill
	}
	marks.reset(nm)
	return marks
}

// noteReached appends newly stamped ids to the reach list, abandoning it
// for the rest of the sweep once it outgrows the sparse threshold — a
// flooding sweep then pays one length test per round, nothing per id.
func (a *arena) noteReached(ids []int32) {
	if !a.reachOK {
		return
	}
	if len(a.reach)+len(ids) > a.reachMax {
		a.reachOK = false
		return
	}
	a.reach = append(a.reach, ids...)
}

// noteReachedWord is noteReached for one lane word: the newly stamped
// ids are base+b for every set bit b of w.
func (a *arena) noteReachedWord(base int, w uint64) {
	if !a.reachOK {
		return
	}
	if len(a.reach)+bits.OnesCount64(w) > a.reachMax {
		a.reachOK = false
		return
	}
	for ; w != 0; w &= w - 1 {
		a.reach = append(a.reach, int32(base+bits.TrailingZeros64(w)))
	}
}

// growProduct sizes dist/parent/plabel for ids in [0, n).
func (a *arena) growProduct(n int) {
	if cap(a.dist) < n {
		a.dist = make([]int32, n)
		a.parent = make([]int32, n)
		a.plabel = make([]byte, n)
	}
	a.dist = a.dist[:n]
	a.parent = a.parent[:n]
	a.plabel = a.plabel[:n]
}

// growWords returns the three lane-vertex word arrays of a sweep
// (visited / current frontier / next frontier), each n words, zeroed,
// and starts the dirty list. Unlike the stamped sets the words cannot be
// epoch-cleared — membership lives in individual bits — so the arena
// keeps them zero BETWEEN sweeps instead: every word of w64 past the
// first w64Hot is zero. Handing the arrays out marks them hot; a sweep
// whose dirty list survived zeroes the words it names (cleanWords), any
// other leaves the mark and the next growWords pays the memclear. The
// backing slice itself is pooled with the arena (0 allocs warm).
func (a *arena) growWords(n int) (vis, cur, nxt []uint64) {
	if cap(a.w64) < 3*n {
		a.w64 = make([]uint64, 3*n)
	} else {
		clear(a.w64[:a.w64Hot])
	}
	a.w64Hot = 3 * n
	a.dirty, a.dirtyOK, a.dirtyMax = a.dirty[:0], true, n/sparseFill
	w := a.w64[:3*n]
	return w[:n:n], w[n : 2*n : 2*n], w[2*n:]
}

// noteDirty records that the running sweep turned word kv of vis
// non-zero, abandoning the dirty list once it outgrows the sparse
// threshold.
func (a *arena) noteDirty(kv int32) {
	if !a.dirtyOK {
		return
	}
	if len(a.dirty) >= a.dirtyMax {
		a.dirtyOK = false
		return
	}
	a.dirty = append(a.dirty, kv)
}

// cleanWords ends a sweep whose cur and nxt words are zero again: if the
// dirty list survived, it zeroes the vis words it names, restoring the
// all-zero invariant without a memclear.
func (a *arena) cleanWords(vis []uint64) {
	if !a.dirtyOK {
		return
	}
	for _, kv := range a.dirty {
		vis[kv] = 0
	}
	a.w64Hot = 0
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenaPool.Get().(*arena) }

func (a *arena) release() {
	// Keep the grown buffers; drop only the queue length so the next
	// user starts from an empty worklist.
	a.queue = a.queue[:0]
	a.vs = a.vs[:0]
	a.ls = a.ls[:0]
	arenaPool.Put(a)
}
