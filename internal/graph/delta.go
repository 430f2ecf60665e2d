package graph

import (
	"cmp"
	"math"
	"slices"
)

// This file implements the incremental freeze path. Mutating a frozen
// graph does not discard the CSR snapshot: the last built CSR is kept
// as the base, and the edge log (edgelog.go) holds the net delta against
// it — one live record per edge that differs from the base, an add the
// base lacks or a tombstone of a base edge — with its two counts beside
// it (PendingDelta, the size rules, cancellation). An edge the log's
// index does not hold reads as the base has it, so presence on a frozen
// graph is one probe and, for an unindexed edge, a binary search in the
// base's (from, label) bucket — the mutators' set semantics cost what one
// edge costs, not a scan of its row.
//
// Every effective mutation flips an edge's presence, so it flips
// whether the edge differs from the base: an indexed edge leaves the
// index (its record dies), an unindexed one enters it with a new record
// (write). The log is never sorted on the write path. Freeze sorts its
// live records once (sortedDelta) and merges them into the next CSR side
// by side (mergeSide): each touched bucket is the base's with the
// delta's edges toggled (appendToggled), and the untouched bucket ranges
// between them are bulk-copied from the base with their offsets shifted.
// The read path keeps its own sorted form, the overlay of the pinned
// view (view.go), extended by the log's records since the previous pin;
// Freeze does not read it.
//
// Cost of a freeze: an O(d log d) sort of the d-edge delta per side, one
// bulk copy of the payload and an O(V·L) offset fix-up — against the
// full rebuild's O(E) counting and scatter passes and up to two O(E)
// transposes.
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

// allEdges feeds every live edge of the graph to a pass of buildCSR:
// before the first Freeze the log's live records in order, after it the
// base's edges the delta does not tombstone — an indexed base edge is
// one — followed by the pending adds. It allocates nothing. buildCSR
// sorts the buckets it fills, so only the log's order is meaningful.
func (g *Graph) allEdges(s *csrScatter) {
	if g.csrBase == nil {
		for _, r := range g.log {
			if !r.dead {
				s.add(r.from, r.to, r.label)
			}
		}
		return
	}
	base := g.csrBase
	for v := range base.n {
		for lid, label := range base.labels {
			for _, to := range base.OutWithID(v, lid) {
				if g.deltaDels > 0 {
					if _, _, tombstoned := g.probe(uint32(v), uint32(to), label); tombstoned {
						continue
					}
				}
				s.add(uint32(v), uint32(to), label)
			}
		}
	}
	for _, r := range g.log {
		if !r.dead && r.added {
			s.add(r.from, r.to, r.label)
		}
	}
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

// sortedDelta projects log records onto one CSR side of a graph with n
// rows, sorted by (bucket, val) so an extension or a merge can walk the
// touched buckets in order: with dead the batch of a pin, every record,
// else only the live ones, the net delta. An edge logged k times appears
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
func sortedDelta(log []logEdge, dead bool, c *CSR, n int, out bool) []deltaEntry {
	L := int64(len(c.labels))
	es := make([]deltaEntry, 0, len(log))
	for _, r := range log {
		lid := int64(c.labelID[r.label])
		switch {
		case lid < 0 || r.dead && !dead:
		case out:
			es = append(es, deltaEntry{int64(r.from)*L + lid, int32(r.to), int32(r.from)})
		default:
			es = append(es, deltaEntry{int64(r.to)*L + lid, int32(r.from), int32(r.to)})
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
	n := g.NumVertices()
	c := &CSR{n: n, m: g.edges, labels: base.labels, labelID: base.labelID}
	nL := n * len(c.labels)
	c.outBucket, c.outTo = mergeSide(base.outBucket, base.outTo, nL, sortedDelta(g.log, false, base, n, true), c.m)
	c.inBucket, c.inFrom = mergeSide(base.inBucket, base.inFrom, nL, sortedDelta(g.log, false, base, n, false), c.m)
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
