package graph

import (
	"cmp"
	"math"
	"slices"
)

// This file implements the incremental freeze path. Mutating a frozen
// graph does not discard the CSR snapshot: the last built CSR is kept
// as the base, and every AddEdge / RemoveEdge since is recorded as a
// net set against it (addBuf: edges absent from the base; delBuf:
// tombstones for base edges — the bookkeeping behind PendingDelta,
// canOverlay and cancellation).
//
// The SORTED form of that delta exists once: the overlay of the pinned
// view (view.go). The mutators log the edges they touch (Graph.viewLog),
// a pin sorts that batch alone and re-merges only the buckets it touches
// (sortedDelta here, overlaySet.extend in view.go), and Freeze flattens
// the resulting overlay into the next CSR (mergeSide): touched buckets
// are copied from the overlay, the untouched ranges between them
// bulk-copied from the base with their offsets shifted. addBuf/delBuf
// are walked and sorted only when no view has been pinned on the base
// yet (or its log was forgotten): the whole net delta is then the batch
// that extends the empty overlay.
//
// Cost of a freeze: one extension by what was mutated since the last
// pin, one bulk memcpy of the payload and an O(V·L) offset fix-up —
// against the full rebuild's two O(E) scatter passes and an O(E log)
// per-bucket sort.
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
	return len(g.addBuf), len(g.delBuf)
}

// deltaCanceled reports whether the mutations since csrBase was built
// canceled out exactly (e.g. an add/remove pair): same rows, same edges
// — hence the same alphabet — so the base still describes the graph.
func (g *Graph) deltaCanceled() bool {
	return g.csrBase != nil && len(g.addBuf)+len(g.delBuf) == 0 && g.NumVertices() == g.csrBase.n
}

// canMergeDelta reports whether the pending delta can be merged into
// csrBase: the base must exist, the alphabet must be unchanged (same
// labels ⇒ same bucket stride), and the delta must be small enough
// relative to the base for the merge to win.
func (g *Graph) canMergeDelta() bool {
	if g.csrBase == nil {
		return false
	}
	if d := len(g.addBuf) + len(g.delBuf); d > deltaMergeFloor && d > int(float64(g.csrBase.m)*deltaMergeLimit) {
		return false
	}
	return slices.Equal(g.csrBase.labels, g.Alphabet())
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
// graph with n rows, sorted by (bucket, val) so an extension can walk
// the touched buckets in order. An edge logged k times appears k times
// (overlaySet.extend reads the parity). Edges whose label the base
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

// mergeCSR builds the next snapshot by flattening the overlay of the
// graph's current state into csrBase. Preconditions (canMergeDelta):
// same alphabet as the base, n >= base.n.
func (g *Graph) mergeCSR() *CSR {
	vw := g.view
	if vw == nil || vw.epoch != g.Epoch() {
		vw = g.buildOverlayView()
	}
	base := g.csrBase
	c := &CSR{n: vw.n, m: vw.m, labels: base.labels, labelID: base.labelID}
	nL := vw.n * len(c.labels)
	c.outBucket, c.outTo = mergeSide(base.outBucket, base.outTo, nL, vw.out, vw.m)
	c.inBucket, c.inFrom = mergeSide(base.inBucket, base.inFrom, nL, vw.in, vw.m)
	return c
}

// mergeSide flattens one adjacency side: the overlay's buckets are
// copied from their merged contents, and the untouched bucket ranges
// between them are bulk-copied from the base with their offsets
// shifted. nL is the new bucket count (rows may have grown past the
// base), m the new edge count.
func mergeSide(baseBucket, basePayload []int32, nL int, o *overlaySet, m int) ([]int32, []int32) {
	newBucket := make([]int32, nL+1)
	newPayload := make([]int32, m)
	baseNL := len(baseBucket) - 1
	dstEnd := int32(0) // payload filled so far
	cur := 0           // next bucket to process

	// copyPlain advances over the untouched buckets [cur, tb): their
	// payload is one contiguous base range (copied wholesale) and their
	// offsets shift uniformly by the net delta so far.
	copyPlain := func(tb int) {
		if hi := min(tb, baseNL); cur < hi {
			s0, s1 := baseBucket[cur], baseBucket[hi]
			copy(newPayload[dstEnd:dstEnd+(s1-s0)], basePayload[s0:s1])
			d := dstEnd - s0
			for i := cur + 1; i <= hi; i++ {
				newBucket[i] = baseBucket[i] + d
			}
			dstEnd += s1 - s0
			cur = hi
		}
		for ; cur < tb; cur++ { // rows beyond the base: empty buckets
			newBucket[cur+1] = dstEnd
		}
	}

	for _, blk := range o.blocks {
		if blk == nil {
			continue
		}
		for _, e := range blk.ents {
			copyPlain(int(e.bucket))
			dstEnd += int32(copy(newPayload[dstEnd:], e.vals))
			cur = int(e.bucket) + 1
			newBucket[cur] = dstEnd
		}
	}
	copyPlain(nL)
	return newBucket, newPayload
}
