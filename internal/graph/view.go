package graph

import (
	"math"
	"slices"

	"repro/internal/automaton"
)

// This file implements overlay-aware snapshot views — the MVCC-lite
// read path. A View pins a (base CSR, delta-prefix, epoch) triple at a
// point in time and answers the same label-restricted adjacency queries
// as a CSR, merging the frozen buckets with the pending mutation
// overlay (sorted adds minus tombstones). Queries therefore never force
// a Freeze after a mutation: for small deltas they read base + overlay
// directly, and the refreeze becomes a background compaction concern
// (rspq.Engine.Compact) instead of a stall on the query hot path.
//
// Two regimes:
//
//   - Pass-through: the delta is empty (or the graph is freshly
//     frozen). The view wraps the CSR with nil overlay maps and every
//     accessor is a single nil-check away from the raw CSR slice — the
//     kernels keep their 0-alloc/contiguous-scan behavior bit for bit.
//
//   - Overlay: mutations are pending and small (canOverlay). At pin
//     time the touched buckets — O(delta) of them — are materialized
//     once into a sorted bucket→slice set via the same three-way
//     mergeBucket the incremental freeze uses, plus a per-vertex dirty
//     bitset so untouched rows pay one bit-test before falling through
//     to the base. Rows of vertices added after the base freeze exist
//     only in the overlay set.
//
// Views are cached per epoch on the Graph (g.view, dropped by
// invalidate/Freeze/SetShards), so pinning is allocation-free once warm
// and a pinned view stays immutable — safe for concurrent readers, and
// still a valid snapshot of its epoch after further mutations or a
// compaction (overlay slices are fresh copies; base arrays are
// immutable).
//
// Epoch keys stay sound across compaction: Freeze does not advance the
// epoch, so the graph content at a given epoch is identical whether a
// query saw it through an overlay view or through the CSR the
// background compaction later produced. Caches keyed by epoch therefore
// never need to distinguish the two access paths.

// View is a pinned, immutable read snapshot of a Graph: the last frozen
// base CSR plus the (possibly empty) mutation delta accumulated since,
// pre-merged per touched bucket. It is safe for concurrent readers.
// Obtain one with Graph.PinView.
type View struct {
	base *CSR

	n, m   int   // current vertex/edge counts (delta included)
	shards int   // the graph's shard count at pin time (0 = unsharded)
	stride int64 // labels per row of the base (bucket stride)
	epoch  uint64

	adds, removes int // delta sizes pinned by this view

	// Overlay state; both nil on a pass-through view.
	out, in *overlaySet
}

// overlaySet is one adjacency side of an overlay: the touched global
// bucket indexes (int64(v)*stride+lid) in ascending order paired with
// their fully merged contents, plus a bitset marking vertices owning at
// least one touched bucket so clean rows pay a single bit-test. Sorted
// arrays beat a map here on both ends: the builder emits buckets in
// ascending order anyway (appends are free, no hashing), and the
// O(log Δ) lookup is only ever paid on dirty rows.
type overlaySet struct {
	keys  []int64
	vals  [][]int32
	dirty []uint64
}

func (o *overlaySet) get(b int64) ([]int32, bool) {
	if i, ok := slices.BinarySearch(o.keys, b); ok {
		return o.vals[i], true
	}
	return nil, false
}

func (o *overlaySet) dirtyRow(v int) bool {
	return o.dirty[v>>6]>>(uint(v)&63)&1 != 0
}

// PinView returns a read snapshot of the graph at its current epoch,
// building it on first use and caching it until the next mutation.
// When the graph is frozen (or the pending mutations canceled out) the
// view is a zero-overhead pass-through over the CSR. When a small delta
// is pending (same alphabet-superset, within the merge thresholds) the
// view overlays it on the last base WITHOUT freezing — this is the
// no-freeze hot path. Only when no base exists or the delta has grown
// past the overlay thresholds does PinView fall back to a synchronous
// Freeze.
//
// Like Freeze, PinView on a warm graph is read-only and safe under
// concurrent queries; the first call after a mutation must be
// externally synchronized with other queries (rspq.Engine does this
// internally).
func (g *Graph) PinView() *View {
	if g.view != nil {
		return g.view
	}
	if g.csr == nil && g.canOverlay() {
		if len(g.addBuf)+len(g.delBuf) == 0 && g.NumVertices() == g.csrBase.n {
			// Mutations canceled out exactly (e.g. an add/remove pair):
			// the base still describes the current content verbatim.
			g.view = g.passView(g.csrBase)
		} else {
			g.view = g.buildOverlayView()
		}
		return g.view
	}
	g.view = g.passView(g.Freeze())
	return g.view
}

// SnapshotView warms the lazily built query indexes every tier reads —
// the view and the alphabet — and returns the view with the epoch it was
// pinned under, retrying if a mutation interleaves (bumping the epoch
// mid-build) so the pair is consistent: callers can use the epoch as a
// cache key for data derived from the view. The acyclicity verdict is
// deliberately NOT warmed here: only some tiers dispatch on it
// (rspq.Solver.ChooseAlgorithm), and after a cycle-breaking removal it
// costs an O(V+E) recheck the others should never pay.
func (g *Graph) SnapshotView() (vw *View, epoch uint64) {
	for {
		epoch = g.Epoch()
		vw = g.PinView()
		g.Alphabet()
		if g.Epoch() == epoch {
			return vw, epoch
		}
	}
}

func (g *Graph) passView(c *CSR) *View {
	return &View{base: c, n: c.n, m: c.m, shards: g.shardCount,
		stride: int64(len(c.labels)), epoch: g.Epoch()}
}

// canOverlay reports whether the pending delta can be served as a read
// overlay on csrBase without freezing: a base must exist, every added
// label must already have a dense id in it (a new label changes the
// bucket stride — genuine restructure), and the delta must be within
// the same size thresholds as the incremental merge (past them a
// synchronous rebuild is no slower than dragging a huge overlay through
// every query).
func (g *Graph) canOverlay() bool {
	if g.csrBase == nil {
		return false
	}
	if d := len(g.addBuf) + len(g.delBuf); d > deltaMergeFloor && d > int(float64(g.csrBase.m)*deltaMergeLimit) {
		return false
	}
	// deltaNewLabel is maintained by AddEdge (sticky until the next
	// freeze), standing in for a scan of the whole add buffer here. It
	// can be conservatively stale — the offending add may since have
	// been removed — which only costs a fallback freeze, never a wrong
	// overlay.
	return !g.deltaNewLabel
}

// buildOverlayView materializes the overlay: both delta sides are
// projected and sorted exactly as the incremental freeze would
// (deltaSide), then each touched bucket is merged once (mergeBucket)
// into a fresh slice keyed by its global bucket index. Cost is
// O(Δ log Δ + touched bucket contents) — independent of E.
func (g *Graph) buildOverlayView() *View {
	base := g.csrBase
	n := g.NumVertices()
	vw := &View{base: base, n: n, m: g.edges, shards: g.shardCount,
		stride: int64(len(base.labels)), epoch: g.Epoch(),
		adds: len(g.addBuf), removes: len(g.delBuf)}
	L := int(vw.stride)
	vw.out = overlaySide(base.outBucket, base.outTo, n, L,
		deltaSide(g.addBuf, base, true), deltaSide(g.delBuf, base, true))
	vw.in = overlaySide(base.inBucket, base.inFrom, n, L,
		deltaSide(g.addBuf, base, false), deltaSide(g.delBuf, base, false))
	return vw
}

// overlaySide materializes one adjacency side of the overlay: each
// touched global bucket index mapped to its merged contents
// ((base \ dels) ∪ adds, sorted), and the dirty bitset over vertices.
// One pass in ascending bucket order appends every merged bucket into a
// growing backing array (recording cut offsets, since growth may move
// it), so the key array comes out sorted for free and no sizing
// pre-pass is needed.
func overlaySide(baseBucket, basePayload []int32, n, L int, adds, dels []deltaEntry) *overlaySet {
	o := &overlaySet{dirty: make([]uint64, (n+63)>>6)}
	baseNL := int64(len(baseBucket) - 1)
	backing := make([]int32, 0, 2*(len(adds)+len(dels)))
	var cuts []int32 // bucket i occupies backing[cuts[i]:cuts[i+1]]

	ai, di := 0, 0
	for ai < len(adds) || di < len(dels) {
		b := int64(math.MaxInt64)
		if ai < len(adds) {
			b = adds[ai].bucket
		}
		if di < len(dels) && dels[di].bucket < b {
			b = dels[di].bucket
		}
		a0 := ai
		for ai < len(adds) && adds[ai].bucket == b {
			ai++
		}
		d0 := di
		for di < len(dels) && dels[di].bucket == b {
			di++
		}
		var span []int32
		if b < baseNL {
			span = basePayload[baseBucket[b]:baseBucket[b+1]]
		}
		backing = appendMerged(backing, span, adds[a0:ai], dels[d0:di])
		o.keys = append(o.keys, b)
		cuts = append(cuts, int32(len(backing)))
		v := int(b) / L
		o.dirty[v>>6] |= 1 << (uint(v) & 63)
	}
	o.vals = make([][]int32, len(cuts))
	start := int32(0)
	for i, end := range cuts {
		o.vals[i] = backing[start:end:end]
		start = end
	}
	return o
}

// appendMerged appends (span \ dels) ∪ adds, sorted ascending, to dst —
// the append-flavored twin of mergeBucket for destinations whose final
// size is not known up front.
func appendMerged(dst []int32, span []int32, adds, dels []deltaEntry) []int32 {
	ai, di := 0, 0
	for _, v := range span {
		if di < len(dels) && dels[di].val == v {
			di++
			continue
		}
		for ai < len(adds) && adds[ai].val < v {
			dst = append(dst, adds[ai].val)
			ai++
		}
		dst = append(dst, v)
	}
	for ; ai < len(adds); ai++ {
		dst = append(dst, adds[ai].val)
	}
	return dst
}

// NumVertices returns the number of vertices of the pinned snapshot.
func (vw *View) NumVertices() int { return vw.n }

// NumEdges returns the number of edges of the pinned snapshot (overlay
// included).
func (vw *View) NumEdges() int { return vw.m }

// Labels returns the base snapshot's alphabet. Under an overlay this is
// a superset of the live labels (a label whose last edge is tombstoned
// keeps its — now empty — buckets until compaction). The slice must
// not be modified.
func (vw *View) Labels() automaton.Alphabet { return vw.base.labels }

// NumLabels returns the number of dense label ids of the snapshot.
func (vw *View) NumLabels() int { return len(vw.base.labels) }

// Label returns the label byte with dense id lid.
func (vw *View) Label(lid int) byte { return vw.base.labels[lid] }

// LabelID returns the dense id of label, or -1 when the base snapshot
// carries no such edge.
func (vw *View) LabelID(label byte) int { return int(vw.base.labelID[label]) }

// Epoch returns the mutation epoch the view was pinned at.
func (vw *View) Epoch() uint64 { return vw.epoch }

// Base returns the frozen CSR the view reads through.
func (vw *View) Base() *CSR { return vw.base }

// Shards returns the shard count K the view was pinned under (0 =
// unsharded): the frontier-exchange kernels split the view's rows
// [0, NumVertices()) into K contiguous ranges (shard.go).
func (vw *View) Shards() int { return vw.shards }

// Overlay reports whether the view carries a pending-mutation overlay;
// false means zero-overhead pass-through to the base CSR.
func (vw *View) Overlay() bool { return vw.out != nil }

// PendingDelta reports the delta sizes (edges added, edges tombstoned)
// pinned by the view; both zero on a pass-through view.
func (vw *View) PendingDelta() (adds, removes int) { return vw.adds, vw.removes }

// OutWithID returns the targets of v's out-edges with dense label id
// lid, sorted ascending. The slice aliases internal storage and must
// not be modified.
func (vw *View) OutWithID(v, lid int) []int32 {
	if vw.out == nil {
		return vw.base.OutWithID(v, lid)
	}
	return vw.outOverlay(v, lid)
}

func (vw *View) outOverlay(v, lid int) []int32 {
	if vw.out.dirtyRow(v) {
		if s, ok := vw.out.get(int64(v)*vw.stride + int64(lid)); ok {
			return s
		}
	}
	if v >= vw.base.n {
		return nil
	}
	return vw.base.OutWithID(v, lid)
}

// InWithID returns the sources of v's in-edges with dense label id lid,
// sorted ascending. The slice aliases internal storage and must not be
// modified.
func (vw *View) InWithID(v, lid int) []int32 {
	if vw.in == nil {
		return vw.base.InWithID(v, lid)
	}
	return vw.inOverlay(v, lid)
}

func (vw *View) inOverlay(v, lid int) []int32 {
	if vw.in.dirtyRow(v) {
		if s, ok := vw.in.get(int64(v)*vw.stride + int64(lid)); ok {
			return s
		}
	}
	if v >= vw.base.n {
		return nil
	}
	return vw.base.InWithID(v, lid)
}

// OutWith returns the targets of v's out-edges carrying label, sorted
// ascending; nil when no base edge carries the label.
func (vw *View) OutWith(v int, label byte) []int32 {
	lid := vw.base.labelID[label]
	if lid < 0 {
		return nil
	}
	return vw.OutWithID(v, int(lid))
}

// InWith returns the sources of v's in-edges carrying label, sorted
// ascending; nil when no base edge carries the label.
func (vw *View) InWith(v int, label byte) []int32 {
	lid := vw.base.labelID[label]
	if lid < 0 {
		return nil
	}
	return vw.InWithID(v, int(lid))
}

// OutDegree returns the number of edges leaving v — O(1) on clean rows,
// O(L) on rows the overlay touched.
func (vw *View) OutDegree(v int) int {
	if vw.out == nil {
		return vw.base.OutDegree(v)
	}
	if !vw.out.dirtyRow(v) {
		if v >= vw.base.n {
			return 0
		}
		return vw.base.OutDegree(v)
	}
	d := 0
	for lid := 0; lid < int(vw.stride); lid++ {
		d += len(vw.outOverlay(v, lid))
	}
	return d
}

// InDegree returns the number of edges entering v — O(1) on clean rows,
// O(L) on rows the overlay touched.
func (vw *View) InDegree(v int) int {
	if vw.in == nil {
		return vw.base.InDegree(v)
	}
	if !vw.in.dirtyRow(v) {
		if v >= vw.base.n {
			return 0
		}
		return vw.base.InDegree(v)
	}
	d := 0
	for lid := 0; lid < int(vw.stride); lid++ {
		d += len(vw.inOverlay(v, lid))
	}
	return d
}

// HasEdge reports whether the exact edge (from, label, to) exists in
// the pinned snapshot, by binary search within the merged bucket.
func (vw *View) HasEdge(from int, label byte, to int) bool {
	_, found := slices.BinarySearch(vw.OutWith(from, label), int32(to))
	return found
}
