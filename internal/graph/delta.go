package graph

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
)

// This file implements the incremental freeze path. Mutating a frozen
// graph does not discard the CSR snapshot: the last built CSR is kept
// as the base, and every effective AddEdge / RemoveEdge since is
// recorded in one net map against it (Graph.delta: true for an edge the
// base lacks, false for a tombstoned base edge), with its two counts
// beside it (PendingDelta, the size rules, cancellation). An edge the
// map does not list reads as the base has it, so presence on a frozen
// graph is one map lookup and, for an unlisted edge, a binary search in
// the base's (from, label) bucket — the mutators' set semantics cost
// what one edge costs, not a scan of its row.
//
// Every effective mutation flips an edge's presence, so it flips
// whether the edge differs from the base: a listed edge leaves the map,
// an unlisted one enters it (toggleDelta). The map is never sorted on
// the write path. Freeze sorts it once (netDelta, sortedDelta) and
// merges it into the next CSR side by side (mergeSide): each touched
// bucket is the base's with the delta's edges toggled (appendToggled),
// and the untouched bucket ranges between them are bulk-copied from the
// base with their offsets shifted. The read path keeps its own sorted
// form, the overlay of the pinned view (view.go), extended by the edges
// logged since the previous pin; Freeze does not read it.
//
// Cost of a freeze: an O(d log d) sort of the d-edge delta per side, one
// bulk copy of the payload and an O(V·L) offset fix-up — against the
// full rebuild's two O(E) scatter passes and an O(E log) per-bucket
// sort.
//
// The merge path requires the alphabet to be unchanged since the base
// was built: a new (or vanished) label changes the bucket stride of
// every row, which is a genuine restructure, so Freeze falls back to a
// full rebuild there — as it does when the delta has grown past
// deltaMergeLimit of the base's edges, where a rebuild is no slower.
//
// Snapshots stay immutable: the merge allocates fresh arrays, so CSRs
// handed out before the mutation remain valid views of the
// pre-mutation graph (rspq.Engine relies on this while it serves an
// old epoch).

// deltaMergeLimit is the largest delta-to-base edge ratio still worth
// merging and deltaMergeFloor the delta size below which merging always
// wins regardless of ratio (both are perf heuristics — the merge is
// correct at any size); past them Freeze rebuilds from scratch.
const (
	deltaMergeLimit = 0.25
	deltaMergeFloor = 64
)

// FreezeStats reports how many CSR snapshots were built from scratch
// and how many were produced by the incremental delta merge. Like
// Epoch, it is safe to call concurrently with queries.
func (g *Graph) FreezeStats() (full, incremental uint64) {
	return g.fullBuilds.Load(), g.incBuilds.Load()
}

// FreezeTimings reports the cumulative wall time spent building CSR
// snapshots (full rebuilds and incremental merges alike) and the wall
// time of the most recent build, both in nanoseconds. Safe to call
// concurrently with queries; a scrape racing an in-progress Freeze
// simply sees the previous build's numbers.
func (g *Graph) FreezeTimings() (totalNanos, lastNanos uint64) {
	return g.freezeNanos.Load(), g.lastFreezeNanos.Load()
}

// FreezeDeltaEdges reports how many buffered mutations (adds plus
// remove tombstones) the CSR builds absorbed: the cumulative total
// across all freezes and the size absorbed by the most recent one.
// Safe to call concurrently with queries.
func (g *Graph) FreezeDeltaEdges() (total, last uint64) {
	return g.freezeDelta.Load(), g.lastFreezeDelta.Load()
}

// PendingDelta reports the size of the mutation delta accumulated since
// the last Freeze: edges added and edges tombstoned. Both are zero on a
// freshly frozen (or never-frozen) graph.
func (g *Graph) PendingDelta() (adds, removes int) {
	return g.deltaAdds, g.deltaDels
}

// edgeKey is an edge packed into 16 bytes with no padding — from, and
// to<<8 | label — so the delta map hashes it as one block of memory.
type edgeKey struct{ from, toLabel uint64 }

func (k edgeKey) edge() Edge {
	return Edge{From: int(k.from), Label: byte(k.toLabel), To: int(k.toLabel >> 8)}
}

// lookup decides whether an edge is present on a frozen graph: k is its
// delta key, listed reports whether the delta holds it, and present is
// then its entry, or else the base's answer.
func (g *Graph) lookup(from int, label byte, to int) (k edgeKey, listed, present bool) {
	k = edgeKey{uint64(from), uint64(to)<<8 | uint64(label)}
	if added, ok := g.delta[k]; ok {
		return k, true, added
	}
	return k, false, g.csrBase.HasEdge(from, label, to)
}

// toggleDelta is an effective write to a frozen graph of the edge keyed
// k — an add when added, a removal otherwise. It drops the adjacency
// lists (rebuilt only when read, see OutEdges), keeps the counts
// (tally) and flips whether the edge differs from the base: a listed
// edge is back to the base's state and leaves the delta; an unlisted
// one enters it, as an add the base lacks or as a tombstone of a base
// edge.
func (g *Graph) toggleDelta(k edgeKey, listed, added bool) {
	e := k.edge()
	if added && (uint(e.From) >= uint(g.n) || uint(e.To) >= uint(g.n)) {
		panic(fmt.Sprintf("graph: edge %v has an endpoint outside [0, %d)", e, g.n))
	}
	g.out, g.in = nil, nil
	g.tally(e, added)
	switch {
	case listed && added: // a tombstoned base edge is back
		delete(g.delta, k)
		g.deltaDels--
	case listed: // a pending add is gone again
		delete(g.delta, k)
		g.deltaAdds--
	default:
		if g.delta == nil {
			g.delta = make(map[edgeKey]bool)
		}
		g.delta[k] = added
		if added {
			g.deltaAdds++
			// Sticky until the next freeze resets the delta: pinning an
			// overlay view checks this flag instead of rescanning the
			// delta for out-of-alphabet labels.
			g.deltaNewLabel = g.deltaNewLabel || g.csrBase.labelID[e.Label] < 0
		} else {
			g.deltaDels++
		}
	}
	g.logDelta(e)
}

// allEdges yields every edge of the graph without rebuilding the lists:
// the lists while they are kept, else the base's edges the delta does
// not tombstone and then the pending adds. The order is fixed only on
// the first path; buildCSR, its one reader, sorts every bucket.
func (g *Graph) allEdges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		if g.listsKept() {
			for _, row := range g.out {
				for _, e := range row {
					if !yield(e) {
						return
					}
				}
			}
			return
		}
		base := g.csrBase
		for v := range base.n {
			for lid, label := range base.labels {
				for _, to := range base.OutWithID(v, lid) {
					if g.deltaDels > 0 {
						if _, listed := g.delta[edgeKey{uint64(v), uint64(to)<<8 | uint64(label)}]; listed {
							continue
						}
					}
					if !yield(Edge{From: v, Label: label, To: int(to)}) {
						return
					}
				}
			}
		}
		for k, added := range g.delta {
			if added && !yield(k.edge()) {
				return
			}
		}
	}
}

// netDelta returns the edges the delta lists, in map order.
func (g *Graph) netDelta() []Edge {
	es := make([]Edge, 0, len(g.delta))
	for k := range g.delta {
		es = append(es, k.edge())
	}
	return es
}

// deltaFits reports whether the pending delta is small enough, against
// the base, to be read as an overlay or merged into the next CSR: at
// most deltaMergeFloor edges, or at most deltaMergeLimit of the base's.
// Past it a rebuild is no slower.
func (g *Graph) deltaFits() bool {
	d := g.deltaAdds + g.deltaDels
	return d <= deltaMergeFloor || d <= int(float64(g.csrBase.m)*deltaMergeLimit)
}

// deltaCanceled reports whether the mutations since csrBase was built
// canceled out exactly (e.g. an add/remove pair): same rows, same edges
// — hence the same alphabet — so the base still describes the graph.
func (g *Graph) deltaCanceled() bool {
	return g.csrBase != nil && g.deltaAdds+g.deltaDels == 0 && g.NumVertices() == g.csrBase.n
}

// canMergeDelta reports whether the pending delta can be merged into
// csrBase: the base must exist, the alphabet must be unchanged (same
// labels ⇒ same bucket stride), and the delta must fit (deltaFits).
func (g *Graph) canMergeDelta() bool {
	return g.csrBase != nil && g.deltaFits() && slices.Equal(g.csrBase.labels, g.Alphabet())
}

// deltaEntry is one logged edge projected onto one CSR side: the row
// and the bucket it lands in ((row, label-id) flattened — int64, since
// row·L can exceed int32 on huge many-label graphs even though edge
// counts cannot) and the payload value (the target for the out side,
// the source for the in side).
type deltaEntry struct {
	bucket   int64
	val, row int32
}

// sortedDelta projects a batch of logged edges onto one CSR side of a
// graph with n rows, sorted by (bucket, val) so an extension or a merge
// can walk the touched buckets in order. An edge logged k times appears
// k times (appendToggled reads the parity). Edges whose label the base
// lacks are dropped: the builders run only when no live edge carries
// such a label (canOverlay, canMergeDelta), so one in the log was added
// and removed again since the view it extends was pinned.
//
// Whenever every bucket index fits in 32 bits — any graph short of
// row·label counts in the billions — (bucket, val) is sorted packed
// into one uint64 (both halves are non-negative, so the order is the
// same): pdqsort without a function call per comparison, a third of
// the time.
func sortedDelta(log []Edge, c *CSR, n int, out bool) []deltaEntry {
	L := int64(len(c.labels))
	es := make([]deltaEntry, 0, len(log))
	for _, e := range log {
		lid := int64(c.labelID[e.Label])
		switch {
		case lid < 0:
		case out:
			es = append(es, deltaEntry{int64(e.From)*L + lid, int32(e.To), int32(e.From)})
		default:
			es = append(es, deltaEntry{int64(e.To)*L + lid, int32(e.From), int32(e.To)})
		}
	}
	if int64(n)*L > math.MaxUint32 {
		slices.SortFunc(es, func(a, b deltaEntry) int {
			return cmp.Or(cmp.Compare(a.bucket, b.bucket), cmp.Compare(a.val, b.val))
		})
		return es
	}
	packed := make([]uint64, len(es))
	for i, e := range es {
		packed[i] = uint64(e.bucket)<<32 | uint64(uint32(e.val))
	}
	slices.Sort(packed)
	for i, p := range packed {
		es[i] = deltaEntry{int64(p >> 32), int32(uint32(p)), int32(uint32(p>>32) / uint32(L))}
	}
	return es
}

// mergeCSR builds the next snapshot by merging the sorted net delta
// into csrBase. Preconditions (canMergeDelta): same alphabet as the
// base, n >= base.n.
func (g *Graph) mergeCSR() *CSR {
	base := g.csrBase
	n, es := g.NumVertices(), g.netDelta()
	c := &CSR{n: n, m: g.edges, labels: base.labels, labelID: base.labelID}
	nL := n * len(c.labels)
	c.outBucket, c.outTo = mergeSide(base.outBucket, base.outTo, nL, sortedDelta(es, base, n, true), c.m)
	c.inBucket, c.inFrom = mergeSide(base.inBucket, base.inFrom, nL, sortedDelta(es, base, n, false), c.m)
	return c
}

// mergeSide builds one adjacency side of the next CSR in one pass over
// the net delta, sorted by (bucket, val): each touched bucket is the
// base's with the delta's values toggled, and the untouched bucket
// ranges between them are bulk-copied from the base with their offsets
// shifted. nL is the new bucket count (rows may have grown past the
// base), m the new edge count.
func mergeSide(baseBucket, basePayload []int32, nL int, delta []deltaEntry, m int) ([]int32, []int32) {
	newBucket := make([]int32, nL+1)
	payload := make([]int32, 0, m)
	baseNL := len(baseBucket) - 1
	cur := 0 // next bucket to process

	// copyPlain advances over the untouched buckets [cur, tb): their
	// payload is one contiguous base range (copied wholesale) and their
	// offsets shift uniformly by the net delta so far.
	copyPlain := func(tb int) {
		if hi := min(tb, baseNL); cur < hi {
			s0, s1 := baseBucket[cur], baseBucket[hi]
			d := int32(len(payload)) - s0
			payload = append(payload, basePayload[s0:s1]...)
			for i := cur + 1; i <= hi; i++ {
				newBucket[i] = baseBucket[i] + d
			}
			cur = hi
		}
		for ; cur < tb; cur++ { // rows beyond the base: empty buckets
			newBucket[cur+1] = int32(len(payload))
		}
	}

	for len(delta) > 0 {
		b := int(delta[0].bucket)
		k := 1
		for k < len(delta) && int(delta[k].bucket) == b {
			k++
		}
		copyPlain(b)
		var span []int32
		if b < baseNL {
			span = basePayload[baseBucket[b]:baseBucket[b+1]]
		}
		payload = appendToggled(payload, span, delta[:k])
		cur = b + 1
		newBucket[cur] = int32(len(payload))
		delta = delta[k:]
	}
	copyPlain(nL)
	return newBucket, payload
}
