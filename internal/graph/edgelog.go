package graph

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// This file implements the storage of a graph before its first Freeze:
// one insertion-ordered log of the edges plus a flat index over it.
//
// The log holds one 12-byte record per edge ever added, in insertion
// order; a removal marks its record dead, and a re-added edge gets a new
// record at the end, so the live records read in order are the edge set
// in insertion order minus removals. Once dead records outnumber live
// ones the log is compacted in place (order kept) and the index rebuilt.
//
// The index is an open-addressing table with linear probing. A slot is 8
// bytes: the 1-based log position of a live record in the low half (0
// marks an empty slot) and the record's 32-bit hash in the high half. The
// hash is the fingerprint a probe compares before it reads the log, and
// its low bits are the slot the record's probe starts at, so neither a
// resize nor a deletion reads the log. The load is kept at most ½, the
// hash is keyed by a per-graph random seed so that no input file can
// force long probe chains, and a deletion shifts the rest of its chain
// back (no tombstones). AddEdge, RemoveEdge, HasEdge and flip each cost
// one probe.
//
// The first Freeze builds the CSR from the log, in order, and drops the
// index; the log itself is kept — it is the insertion order OutEdges and
// InEdges report — until the first write to the frozen graph drops it.

// logEdge is one record of the edge log.
type logEdge struct {
	from, to uint32
	label    byte
	dead     bool // removed since it was logged
}

func (r logEdge) edge() Edge { return Edge{From: int(r.from), Label: r.label, To: int(r.to)} }

// minIndexSlots is the size of a graph's first index.
const minIndexSlots = 16

// mix is one round of a multiply-fold hash: the high and low halves of
// the 128-bit product, folded.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash is the keyed hash of an edge: its slot's fingerprint, and modulo
// the table size its home slot.
func (g *Graph) hash(from, to uint32, label byte) uint32 {
	h := mix(uint64(from)<<32|uint64(to)^g.seed, uint64(label)^0xa0761d6478bd642f)
	h = mix(h^g.seed, 0xe7037ed1a0b428db)
	return uint32(h)
}

// probe looks the edge up in the index: it returns the slot holding it
// (found) or the empty slot that ends its chain, where an insertion
// goes, with the edge's hash. The index must not be empty.
func (g *Graph) probe(from, to uint32, label byte) (slot int, h uint32, found bool) {
	h = g.hash(from, to, label)
	mask := len(g.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.index[i]
		if s == 0 {
			return i, h, false
		}
		if uint32(s>>32) == h {
			if r := g.log[uint32(s)-1]; r.from == from && r.to == to && r.label == label {
				return i, h, true
			}
		}
	}
}

// inRange reports whether both endpoints are vertices of g.
func (g *Graph) inRange(from, to int) bool {
	return uint(from) < uint(g.n) && uint(to) < uint(g.n)
}

// logHas reports whether a graph that was never frozen holds the edge.
func (g *Graph) logHas(from int, label byte, to int) bool {
	if len(g.index) == 0 || !g.inRange(from, to) {
		return false
	}
	_, _, found := g.probe(uint32(from), uint32(to), label)
	return found
}

// logWrite is a write to a graph that was never frozen, deciding the
// edge's presence with one probe: with add it adds the edge when absent,
// with remove it removes it when present (both: it flips it). It reports
// whether it wrote. The endpoints must be in range.
func (g *Graph) logWrite(from int, label byte, to int, add, remove bool) bool {
	if add && 2*(g.edges+1) > len(g.index) {
		g.growIndex()
	} else if len(g.index) == 0 {
		return false
	}
	f, t := uint32(from), uint32(to)
	i, h, found := g.probe(f, t, label)
	switch {
	case found && remove:
		g.log[uint32(g.index[i])-1].dead = true
		g.deleteSlot(i)
		g.dead++
		g.tally(Edge{From: from, Label: label, To: to}, false)
		if g.dead > g.edges {
			g.compactLog()
			g.rebuildIndex()
		}
	case !found && add:
		g.log = append(g.log, logEdge{from: f, to: t, label: label})
		g.index[i] = uint64(h)<<32 | uint64(len(g.log))
		g.tally(Edge{From: from, Label: label, To: to}, true)
	default:
		return false
	}
	return true
}

// growIndex doubles the index (or allocates the first one, drawing the
// graph's seed), placing every slot by the hash it holds, and grows the
// log in step to the records the index can take, so a load allocates
// twice per doubling.
func (g *Graph) growIndex() {
	old := g.index
	if old == nil {
		g.seed = rand.Uint64()
		g.index = make([]uint64, minIndexSlots)
	} else {
		g.index = make([]uint64, 2*len(old))
	}
	if more := len(g.index)/2 - len(g.log); more > 0 {
		g.log = slices.Grow(g.log, more)
	}
	mask := len(g.index) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := int(uint32(s>>32)) & mask
		for g.index[i] != 0 {
			i = (i + 1) & mask
		}
		g.index[i] = s
	}
}

// deleteSlot empties slot i and shifts back every later slot of its
// chain whose probe passes the hole, so no chain is broken.
func (g *Graph) deleteSlot(i int) {
	mask := len(g.index) - 1
	for j := (i + 1) & mask; g.index[j] != 0; j = (j + 1) & mask {
		home := int(uint32(g.index[j]>>32)) & mask
		if (j-home)&mask >= (j-i)&mask {
			g.index[i] = g.index[j]
			i = j
		}
	}
	g.index[i] = 0
}

// compactLog drops the dead records, keeping the order of the rest.
// The index's positions are stale afterwards.
func (g *Graph) compactLog() {
	live := g.log[:0]
	for _, r := range g.log {
		if !r.dead {
			live = append(live, r)
		}
	}
	clear(g.log[len(live):])
	g.log, g.dead = live, 0
}

// rebuildIndex indexes a dead-free log afresh, in a table sized to it.
func (g *Graph) rebuildIndex() {
	size := minIndexSlots
	for size < 2*(g.edges+1) {
		size *= 2
	}
	if len(g.index) == size {
		clear(g.index)
	} else {
		g.index = make([]uint64, size)
	}
	mask := size - 1
	for p, r := range g.log {
		h := g.hash(r.from, r.to, r.label)
		i := int(h) & mask
		for g.index[i] != 0 {
			i = (i + 1) & mask
		}
		g.index[i] = uint64(h)<<32 | uint64(p+1)
	}
}

// logKept reports whether the log is the graph's edge set in insertion
// order: always before the first Freeze, and after it until a write to
// the frozen graph drops the log (Freeze keeps an empty log as an empty
// slice, not nil).
func (g *Graph) logKept() bool { return g.csrBase == nil || g.log != nil }

// rowsOfLog carves the rows of the live log records grouped by source
// (out) or by target, each in log order, out of one arena — one stable
// counting pass, O(1) allocations. Empty rows are nil; the three-index
// slices pin each row's capacity to its region of the arena.
func rowsOfLog(log []logEdge, n, m int, out bool) [][]Edge {
	key := func(r logEdge) uint32 {
		if out {
			return r.from
		}
		return r.to
	}
	next := make([]int32, n+1)
	for _, r := range log {
		if !r.dead {
			next[key(r)+1]++
		}
	}
	for v := 1; v <= n; v++ {
		next[v] += next[v-1]
	}
	arena := make([]Edge, m)
	rows := make([][]Edge, n)
	for v := range n {
		if lo, hi := next[v], next[v+1]; hi > lo {
			rows[v] = arena[lo:hi:hi]
		}
	}
	for _, r := range log {
		if !r.dead {
			k := key(r)
			arena[next[k]] = r.edge()
			next[k]++
		}
	}
	return rows
}
