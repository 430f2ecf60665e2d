package rspq

import (
	"math/bits"
	"sync"
)

// This file implements the reusable search scratch shared by the
// product-based solvers. Every query needs a handful of dense arrays
// sized by the product |V|·|Q| (visited sets, BFS distances) that the
// seed implementation allocated fresh per call. The arena keeps them
// pooled (sync.Pool, so concurrent queries each get their own). Sets
// over ids are epoch-stamped: membership of id i means mark[i] equals
// the current epoch, so "clearing" a set is one counter increment
// instead of an O(|V|·|Q|) memset; the backward sweep's visited set is
// its packed words instead (visited). Steady-state queries on a warm
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

// visited is a read-only view of a backward sweep's visited words over n
// vertices and m automaton states: state q of vertex v is bit q&63 of
// word (q>>6)·n+v (sweep.go). It stays valid until the arena's next
// sweep.
type visited struct {
	w    []uint64
	n, m int
}

func (s visited) at(v, q int) bool { return s.w[(q>>6)*s.n+v]>>(uint(q)&63)&1 == 1 }

// appendIDs appends the product id v·m + q of every visited (v, q) of
// lane-vertex word kv to ids, in ascending order.
func (s visited) appendIDs(ids []int32, kv int) []int32 {
	v, k := kv%s.n, kv/s.n
	for w, base := s.w[kv], v*s.m+64*k; w != 0; w &= w - 1 {
		ids = append(ids, int32(base+bits.TrailingZeros64(w)))
	}
	return ids
}

// each calls f with the product id v·m + q of every visited (v, q),
// lane by lane.
func (s visited) each(f func(id int)) {
	for k := 0; k*s.n < len(s.w); k++ {
		for v, w := range s.w[k*s.n : (k+1)*s.n] {
			for base := v*s.m + 64*k; w != 0; w &= w - 1 {
				f(base + bits.TrailingZeros64(w))
			}
		}
	}
}

// arena bundles the scratch buffers of one in-flight query. Slices only
// ever grow; the zero value is ready to use.
type arena struct {
	co     visited  // the last backward sweep's visited set
	seen   stamped  // visited set (product ids or vertex ids)
	dist   []int32  // the last sweep with links' BFS distances, valid where co holds
	queue  []int32  // BFS worklist (ExistsWalk's forward reference search)
	w64    []uint64 // packed lane-vertex state words (the sweep)
	w64Hot int      // leading words of w64 the last sweep may have left non-zero
	vs     []int    // path vertex scratch
	ls     []byte   // path label scratch
	lmap   []int16  // CSR label id -> DFA alphabet index (-1 absent)

	// The backward sweep's scratch: the frontier lists, and the probe of a
	// product sweep's sources with the watch bitset of their
	// out-neighbours (goalProbe), zero between sweeps.
	lv    frontier
	probe goalProbe

	// dirty lists the lane-vertex words the last sweep turned non-zero,
	// each once, in no particular order — what lets the next sweep zero
	// them instead of the whole visited third, and the export of a short
	// sweep's sparse goal table (newSparseGoalTable) pay for what it
	// touched instead of for the vertex count. It is valid only while
	// dirtyOK: a sweep that outgrows dirtyMax abandons it.
	dirty    []int32
	dirtyOK  bool
	dirtyMax int
}

// sparseFill is the fill up to which a sweep counts as short: it turned
// on at most 1/sparseFill of its lane-vertex words. A short sweep keeps
// its dirty list, so the next sweep cleans the words from the list, and
// a sparse goal table is built from the listed words rather than from a
// scan of all of them (newSparseGoalTable). Which form a goal table
// takes is decided by bytes alone (exportGoalTable: 8 B per reached id
// against 4 B per product id, even at a fill of 1/2) — what a
// byte-budgeted cache with 4 MiB shards cares about. Export time
// favours the dense form: for an 11-state DFA on a 50k-vertex graph
// (2-vCPU Xeon) the dense export cost ~1 ns per product id (allocate,
// fill, scan the words) plus ~5 ns per reached id, the sparse one from
// the dirty list ~70 ns per reached id (expand, sort, copy). A serving
// process also faults the dense bytes in and collects them later.
const sparseFill = 8

// growWords returns the three lane-vertex word arrays of a sweep
// (visited / current frontier / next frontier), each n words, zeroed,
// and starts the dirty list. Unlike the stamped sets the words cannot be
// epoch-cleared — membership lives in individual bits — and the last
// sweep's visited words stay readable (a.co) until this call, so it
// cleans them here: every sweep ends with its frontier words zero, and
// only the leading w64Hot words of w64, the last sweep's visited third,
// may be non-zero. If the last sweep's dirty list survived, zeroing the
// words it names suffices; otherwise the visited third is cleared. The
// backing slice itself is pooled with the arena (0 allocs warm).
func (a *arena) growWords(n int) (vis, cur, nxt []uint64) {
	if cap(a.w64) < 3*n {
		a.w64 = make([]uint64, 3*n)
	} else if a.dirtyOK {
		for _, kv := range a.dirty {
			a.w64[kv] = 0
		}
	} else {
		clear(a.w64[:a.w64Hot])
	}
	a.w64Hot = n
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

// reachedCount is the number of visited (v, q) of the last sweep,
// counted over the words on its dirty list when that survived and over
// every visited word otherwise.
func (a *arena) reachedCount() int {
	r := 0
	if a.dirtyOK {
		for _, kv := range a.dirty {
			r += bits.OnesCount64(a.co.w[kv])
		}
		return r
	}
	for _, w := range a.co.w {
		r += bits.OnesCount64(w)
	}
	return r
}

// distAt returns the distance the last sweep with links computed for
// (v, q), -1 when unreached.
func (a *arena) distAt(v, q int) int32 {
	if !a.co.at(v, q) {
		return -1
	}
	return a.dist[v*a.co.m+q]
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
