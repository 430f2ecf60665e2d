package graph

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// This file implements a graph's one edge store: an append-only log of
// 12-byte records plus a flat index over it. Every effective write is
// one probe of the index and at most one record appended.
//
// Before the first Freeze the live records are the edges, in insertion
// order: a removal marks its record dead, and a re-added edge gets a new
// record at the end. The first Freeze builds the CSR from the log and
// keeps its records (Graph.order) — the insertion order OutEdges and
// InEdges report — until the first write to the frozen graph; the index
// goes with them.
//
// After it the log is the frozen graph's delta against the base CSR
// (csrBase). An edge is indexed only while it differs from the base: its
// live record says which way (added), and presence is one probe, plus a
// binary search in the base when the index has no entry. A write that
// makes the edge differ appends a live record; one that puts it back
// marks that record dead and deletes its slot. So the live records are
// the net delta, and Freeze merges them (delta.go) and empties the log.
// While a view is pinned, a write that puts an edge back also appends a
// dead record: then every effective write since the pin is one record
// from Graph.pinPos on, and the next PinView extends the view by that
// batch read by parity (view.go).
//
// Once the dead records outnumber the live ones — not counting the dead
// records of the pinned view's batch, which the next pin reads — the log
// is compacted in place, keeping its order and that batch, and the index
// slots of the moved records follow them.
//
// The index is an open-addressing table with linear probing. A slot is 8
// bytes: the 1-based log position of a live record in the low half (0
// marks an empty slot) and the record's 32-bit hash in the high half. The
// hash is the fingerprint a probe compares before it reads the log, and
// its low bits are the slot the record's probe starts at, so neither a
// resize nor a deletion reads the log. The load is kept at most ½, the
// hash is keyed by a per-graph random seed so that no input file can
// force long probe chains, and a deletion shifts the rest of its chain
// back (no tombstones).

// logEdge is one record of the edge log.
type logEdge struct {
	from, to uint32
	label    byte
	added    bool // the edge is present where the base lacks it: every record before the first Freeze
	dead     bool // the record no longer says how the edge differs from the base
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

// write is every mutation of an edge, deciding its presence with one
// probe: its record's answer when the index holds the edge, else the
// base's (absent before the first Freeze). With add it adds the edge
// when absent, with remove it removes it when present (both: it flips
// it). It reports whether it wrote. The endpoints must be in range.
func (g *Graph) write(from int, label byte, to int, add, remove bool) bool {
	if 2*(len(g.log)-g.dead+1) > len(g.index) {
		g.growIndex()
	}
	f, t := uint32(from), uint32(to)
	i, h, found := g.probe(f, t, label)
	present := false
	if found {
		present = g.log[uint32(g.index[i])-1].added
	} else if g.csrBase != nil {
		present = g.csrBase.HasEdge(from, label, to)
	}
	if present && !remove || !present && !add {
		return false
	}
	if found { // back to the base's state: the edge leaves the index
		p := int(uint32(g.index[i]) - 1)
		g.log[p].dead = true
		g.deleteSlot(i)
		g.dead++
		g.countDelta(g.log[p].added, label, -1)
		if g.view != nil { // the batch holds every write since the pin
			g.log = append(g.log, logEdge{from: f, to: t, label: label, dead: true})
			g.dead++
			g.batchDead++
			if p >= g.pinPos {
				g.batchDead++
			}
		}
	} else {
		g.log = append(g.log, logEdge{from: f, to: t, label: label, added: !present})
		g.index[i] = uint64(h)<<32 | uint64(len(g.log))
		g.countDelta(!present, label, 1)
	}
	// After the record: tally's locked epoch increment waits for the
	// stores before it, and placed ahead of them it made a 1M-edge load
	// about 15 % slower.
	g.tally(Edge{From: from, Label: label, To: to}, !present)
	if g.view != nil && len(g.log)-g.pinPos > len(g.log)-g.dead+deltaMergeFloor {
		// Replaying the batch would cost more than the net delta: the
		// view is forgotten, and the next pin builds from the delta.
		g.view, g.batchDead = nil, 0
	}
	if found && g.dead-g.batchDead > len(g.log)-g.dead {
		g.compact()
	}
	return true
}

// countDelta keeps the pending delta's counts as an edge enters it
// (d = 1) or leaves it (d = -1), as an add when added and as a tombstone
// otherwise. A graph that was never frozen has no delta.
func (g *Graph) countDelta(added bool, label byte, d int) {
	switch {
	case g.csrBase == nil:
	case !added:
		g.deltaDels += d
	default:
		g.deltaAdds += d
		// Sticky until the next Freeze resets the delta: pinning an
		// overlay view checks this flag instead of rescanning the delta
		// for out-of-alphabet labels.
		g.deltaNewLabel = g.deltaNewLabel || g.csrBase.labelID[label] < 0
	}
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

// compact drops the dead records, keeping the order of the rest — all
// of them but, while a view is pinned, those of its batch, which the next
// pin reads — and moves each live record's index slot with it: found
// from its hash and its old position, so no record is compared and the
// table keeps its size.
func (g *Graph) compact() {
	keep := len(g.log)
	if g.view != nil {
		keep = g.pinPos
	}
	mask, q := len(g.index)-1, 0
	for p, r := range g.log {
		if r.dead && p < keep {
			continue
		}
		if !r.dead && len(g.index) > 0 && q < p {
			i := int(g.hash(r.from, r.to, r.label)) & mask
			for uint32(g.index[i]) != uint32(p+1) {
				i = (i + 1) & mask
			}
			g.index[i] -= uint64(p - q)
		}
		g.log[q] = r
		q++
	}
	clear(g.log[q:])
	g.pinPos = q - (len(g.log) - keep)
	g.log, g.dead = g.log[:q], g.batchDead
}

// inOrder returns the records whose live ones are the edge set in
// insertion order, and whether the graph has them: always before the
// first Freeze (the log), and after it until a write to the frozen graph
// drops what that Freeze kept (order; an empty graph keeps an empty
// slice, not nil).
func (g *Graph) inOrder() ([]logEdge, bool) {
	if g.csrBase == nil {
		return g.log, true
	}
	return g.order, g.order != nil
}

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
