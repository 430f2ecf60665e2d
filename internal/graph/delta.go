package graph

import (
	"cmp"
	"math"
	"slices"
)

// This file implements the incremental freeze path. Mutating a frozen
// graph no longer discards the CSR snapshot wholesale: the last built
// CSR is kept as a merge base and every AddEdge / RemoveEdge since is
// recorded in a delta overlay (addBuf: edges absent from the base;
// delBuf: tombstones for base edges). The next Freeze then produces the
// new snapshot by MERGING the sorted delta into the base — bulk-copying
// the untouched bucket ranges and three-way-merging only the touched
// buckets — instead of re-scattering and re-sorting all E edges.
//
// Cost: O(Δ log Δ) to sort the delta, O(touched buckets) merge work,
// plus one bulk memcpy of the untouched payload and an O(V·L) offset
// fix-up — against the full rebuild's two O(E) scatter passes and an
// O(E log) per-bucket sort. On a 100k-edge graph with a 1% delta the
// merge is an order of magnitude faster (see BenchmarkFreeze).
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

// deltaEntry is one delta edge projected onto one CSR side: the bucket
// it lands in ((row, label-id) flattened — int64, since row·L can
// exceed int32 on huge many-label graphs even though edge counts
// cannot) and the payload value (the target for the out side, the
// source for the in side).
type deltaEntry struct {
	bucket int64
	val    int32
}

// deltaSide projects the edge set onto one CSR side, sorted by
// (bucket, val) so the merge can walk touched buckets in order.
//
// Whenever every bucket index fits in 32 bits — any graph short of
// row·label counts in the billions — (bucket, val) is packed into one
// uint64 and sorted as a plain ordered slice: the same pdqsort without
// a function call per comparison, which halves the cost of pinning an
// overlay view on streaming workloads. The packing preserves the
// (bucket, val) order because both halves are non-negative.
func deltaSide(edges map[Edge]struct{}, c *CSR, out bool) []deltaEntry {
	if len(edges) == 0 {
		return nil
	}
	L := int64(len(c.labels))
	packed := make([]uint64, 0, len(edges))
	for e := range edges {
		lid := int64(c.labelID[e.Label])
		var b int64
		var v int32
		if out {
			b, v = int64(e.From)*L+lid, int32(e.To)
		} else {
			b, v = int64(e.To)*L+lid, int32(e.From)
		}
		if b > math.MaxUint32 {
			return deltaSideWide(edges, c, out)
		}
		packed = append(packed, uint64(b)<<32|uint64(uint32(v)))
	}
	slices.Sort(packed)
	es := make([]deltaEntry, len(packed))
	for i, p := range packed {
		es[i] = deltaEntry{bucket: int64(p >> 32), val: int32(uint32(p))}
	}
	return es
}

// deltaSideWide is the unpacked fallback for bucket indexes past 32
// bits.
func deltaSideWide(edges map[Edge]struct{}, c *CSR, out bool) []deltaEntry {
	L := int64(len(c.labels))
	es := make([]deltaEntry, 0, len(edges))
	for e := range edges {
		lid := int64(c.labelID[e.Label])
		if out {
			es = append(es, deltaEntry{bucket: int64(e.From)*L + lid, val: int32(e.To)})
		} else {
			es = append(es, deltaEntry{bucket: int64(e.To)*L + lid, val: int32(e.From)})
		}
	}
	slices.SortFunc(es, func(a, b deltaEntry) int {
		if a.bucket != b.bucket {
			return cmp.Compare(a.bucket, b.bucket)
		}
		return cmp.Compare(a.val, b.val)
	})
	return es
}

// mergeCSR builds the next snapshot by merging the pending delta into
// csrBase. Preconditions (canMergeDelta): same alphabet as the base,
// n >= base.n, addBuf ∩ base = ∅ and delBuf ⊆ base (the mutators keep
// these invariants: re-adding a tombstoned edge cancels the tombstone,
// removing a not-yet-frozen edge cancels the add).
func (g *Graph) mergeCSR() *CSR {
	base := g.csrBase
	n := g.NumVertices()
	c := &CSR{n: n, m: g.edges, labels: base.labels, labelID: base.labelID}
	L := len(c.labels)
	c.outBucket, c.outTo = mergeSide(
		base.outBucket, base.outTo, n*L,
		deltaSide(g.addBuf, base, true), deltaSide(g.delBuf, base, true), g.edges)
	c.inBucket, c.inFrom = mergeSide(
		base.inBucket, base.inFrom, n*L,
		deltaSide(g.addBuf, base, false), deltaSide(g.delBuf, base, false), g.edges)
	return c
}

// mergeSide merges one adjacency side: bulk-copies payload and shifts
// offsets for the untouched bucket ranges, and three-way-merges (base
// minus dels, plus adds, all sorted) each touched bucket. nL is the new
// bucket count (rows may have grown past the base), m the new edge
// count.
func mergeSide(baseBucket, basePayload []int32, nL int, adds, dels []deltaEntry, m int) ([]int32, []int32) {
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

	ai, di := 0, 0
	for ai < len(adds) || di < len(dels) {
		tb := nL // next touched bucket
		if ai < len(adds) {
			tb = int(adds[ai].bucket)
		}
		if di < len(dels) && int(dels[di].bucket) < tb {
			tb = int(dels[di].bucket)
		}
		copyPlain(tb)
		a0 := ai
		for ai < len(adds) && int(adds[ai].bucket) == tb {
			ai++
		}
		d0 := di
		for di < len(dels) && int(dels[di].bucket) == tb {
			di++
		}
		var span []int32
		if tb < baseNL {
			span = basePayload[baseBucket[tb]:baseBucket[tb+1]]
		}
		dstEnd = mergeBucket(newPayload, dstEnd, span, adds[a0:ai], dels[d0:di])
		cur = tb + 1
		newBucket[cur] = dstEnd
	}
	copyPlain(nL)
	return newBucket, newPayload
}

// mergeBucket writes (span \ dels) ∪ adds — all sorted ascending —
// into dst starting at pos and returns the new end. adds are disjoint
// from span and dels is a subset of span, so this is a plain ordered
// merge with tombstone skipping.
func mergeBucket(dst []int32, pos int32, span []int32, adds, dels []deltaEntry) int32 {
	ai, di := 0, 0
	for _, v := range span {
		if di < len(dels) && dels[di].val == v {
			di++
			continue
		}
		for ai < len(adds) && adds[ai].val < v {
			dst[pos] = adds[ai].val
			pos++
			ai++
		}
		dst[pos] = v
		pos++
	}
	for ; ai < len(adds); ai++ {
		dst[pos] = adds[ai].val
		pos++
	}
	return pos
}
