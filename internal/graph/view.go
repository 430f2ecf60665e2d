package graph

import (
	"cmp"
	"maps"
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
//   - Overlay: mutations are pending and small (canOverlay). The view
//     carries, per adjacency side and per block of 64 rows, the touched
//     buckets in ascending order with their merged contents, plus a
//     mask of the rows that own one so untouched rows pay one bit-test
//     before falling through to the base. Rows of vertices added after
//     the base freeze exist only in the overlay set.
//
// The graph keeps the last pinned view and a log of the edges mutated
// since (Graph.view / viewLog). Pinning a new epoch EXTENDS that view's
// overlay by the log (overlaySet.extend): sort the batch alone, re-merge
// only the buckets it touches, share every other bucket's slice — and
// every row block the batch misses — with the previous view, drop a
// bucket that reads as the base's again. Cost: O(batch·log batch +
// touched bucket contents + the key index of the touched blocks + one
// pointer per 64 rows); the pending delta enters only through how full a
// touched block already is. Building from scratch (no view pinned on
// this base yet, or its log forgotten) is the same function extending
// the empty overlay by the whole net delta.
//
// A pinned view stays immutable — safe for concurrent readers, and
// still a valid snapshot of its epoch after further mutations,
// extensions or a compaction — because an extension writes only into
// arrays it allocated itself (its block directory, the blocks it
// rebuilt, the buckets it re-merged) and publishes them with the view;
// what it shares with earlier views, and the base, is never written.
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

// overlaySet is one adjacency side of an overlay, partitioned by row:
// blocks[i] holds the touched buckets of rows 64·i … 64·i+63, nil when
// all of them read as the base's. The partition lets an extension share
// what it does not touch at the cost of one pointer per 64 rows (the
// size of a per-vertex bitset), and keeps a dirty row's lookup inside
// one short sorted array.
type overlaySet struct {
	blocks []*overlayBlock
}

// overlayBlock is the overlay of 64 consecutive rows: their touched
// global bucket indexes (int64(v)*stride+lid) in ascending order, each
// with its fully merged contents, and a mask of the rows owning at
// least one so a clean row pays a single bit-test.
type overlayBlock struct {
	dirty uint64
	ents  []overlayEntry
}

type overlayEntry struct {
	bucket int64
	vals   []int32
}

func (o *overlaySet) dirtyRow(v int) bool {
	blk := o.blocks[v>>6]
	return blk != nil && blk.dirty>>(uint(v)&63)&1 != 0
}

// get returns the merged contents of bucket b of row v when the overlay
// touches it.
func (o *overlaySet) get(v int, b int64) ([]int32, bool) {
	if !o.dirtyRow(v) {
		return nil, false
	}
	ents := o.blocks[v>>6].ents
	if i, ok := slices.BinarySearchFunc(ents, b, func(e overlayEntry, b int64) int {
		return cmp.Compare(e.bucket, b)
	}); ok {
		return ents[i].vals, true
	}
	return nil, false
}

// PinView returns a read snapshot of the graph at its current epoch,
// building it on first use and caching it until the next mutation.
// When the graph is frozen (or the pending mutations canceled out) the
// view is a zero-overhead pass-through over the CSR. When a small delta
// is pending (same alphabet-superset, within the merge thresholds) the
// view overlays it on the last base WITHOUT freezing — the no-freeze hot
// path, at the cost of the mutations since the previous pin. Only when
// no base exists or the delta has grown past the overlay thresholds does
// PinView fall back to a synchronous Freeze.
//
// Like Freeze, PinView on a warm graph is read-only and safe under
// concurrent queries; the first call after a mutation must be
// externally synchronized with other queries (rspq.Engine does this
// internally).
func (g *Graph) PinView() *View {
	if g.view != nil && g.view.epoch == g.Epoch() {
		return g.view
	}
	var vw *View
	if g.csr == nil && g.canOverlay() && !g.deltaCanceled() {
		vw = g.buildOverlayView()
	} else {
		vw = g.passView(g.Freeze()) // a canceled delta freezes to the base itself
	}
	g.view, g.viewLog = vw, g.viewLog[:0]
	return vw
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

// buildOverlayView returns the overlay view of the graph's current
// state: the last pinned view's overlay extended by the edges logged
// since, or — when there is no such view — the empty overlay extended by
// the whole net delta.
func (g *Graph) buildOverlayView() *View {
	base := g.csrBase
	n := g.NumVertices()
	out, in, log := &overlaySet{}, &overlaySet{}, g.viewLog
	if g.view == nil {
		log = slices.AppendSeq(make([]Edge, 0, len(g.addBuf)+len(g.delBuf)), maps.Keys(g.addBuf))
		log = slices.AppendSeq(log, maps.Keys(g.delBuf))
	} else if g.view.out != nil {
		out, in = g.view.out, g.view.in
	}
	L := len(base.labels)
	return &View{base: base, n: n, m: g.edges, shards: g.shardCount,
		stride: int64(L), epoch: g.Epoch(),
		adds: len(g.addBuf), removes: len(g.delBuf),
		out: out.extend(base.outBucket, base.outTo, n, L, sortedDelta(log, base, n, true)),
		in:  in.extend(base.inBucket, base.inFrom, n, L, sortedDelta(log, base, n, false))}
}

// extend returns the overlay that reads as o with every edge of batch
// toggled an odd number of times flipped — present if it was absent,
// absent if it was present. Effective mutations of one edge alternate
// between adding and removing it, so that is the edge's final presence
// whether batch is a mutation log since o was pinned or the net delta
// over the base (o empty). batch is sorted by (bucket, val); o is not
// modified, and the result shares every block batch does not touch and,
// within a touched block, the contents of every bucket it does not.
func (o *overlaySet) extend(baseBucket, basePayload []int32, n, L int, batch []deltaEntry) *overlaySet {
	next := &overlaySet{blocks: make([]*overlayBlock, (n+63)>>6)}
	copy(next.blocks, o.blocks)
	baseNL := int64(len(baseBucket) - 1)
	// The rebuilt blocks, their entries and the buckets re-merged into
	// them are carved from three arrays (640 small allocations a pin
	// otherwise), sized here from what the batch touches; reading that
	// up front also spares the merge a chain of dependent cache misses.
	// blocks and ents never grow; a bucket that would not fit payload
	// starts a new array instead of growing — and so moving — this one.
	numEnts, numVals := len(batch), 2*len(batch)
	for i, e := range batch {
		bi := int(e.row >> 6)
		if (i == 0 || int(batch[i-1].row>>6) != bi) && bi < len(o.blocks) && o.blocks[bi] != nil {
			numEnts += len(o.blocks[bi].ents)
		}
		if e.bucket < baseNL && (i == 0 || batch[i-1].bucket != e.bucket) {
			numVals += int(baseBucket[e.bucket+1] - baseBucket[e.bucket])
		}
	}
	blocks := make([]overlayBlock, 0, min(len(batch), len(next.blocks)))
	ents := make([]overlayEntry, numEnts)
	payload := make([]int32, 0, numVals)
	for len(batch) > 0 {
		bi := int(batch[0].row >> 6)
		k := 1
		for k < len(batch) && int(batch[k].row>>6) == bi {
			k++
		}
		part := batch[:k]
		batch = batch[k:]
		var old overlayBlock
		if bi < len(o.blocks) && o.blocks[bi] != nil {
			old = *o.blocks[bi]
		}
		k = len(old.ents) + len(part)
		blocks = append(blocks, overlayBlock{dirty: old.dirty, ents: ents[:0:k]})
		blk := &blocks[len(blocks)-1]
		ents = ents[k:]
		dropped := false
		for len(part) > 0 {
			b := part[0].bucket
			k = 1
			for k < len(part) && part[k].bucket == b {
				k++
			}
			for len(old.ents) > 0 && old.ents[0].bucket < b {
				blk.ents = append(blk.ents, old.ents[0])
				old.ents = old.ents[1:]
			}
			var span []int32
			if b < baseNL {
				span = basePayload[baseBucket[b]:baseBucket[b+1]]
			}
			prev := span
			if len(old.ents) > 0 && old.ents[0].bucket == b {
				prev = old.ents[0].vals
				old.ents = old.ents[1:]
			}
			if need := len(prev) + k; cap(payload)-len(payload) < need {
				payload = make([]int32, 0, max(need, 2*cap(payload)))
			}
			start := len(payload)
			payload = appendToggled(payload, prev, part[:k])
			if slices.Equal(payload[start:], span) {
				payload = payload[:start] // reads as the base's again: leaves the overlay
				dropped = true
			} else {
				blk.ents = append(blk.ents, overlayEntry{b, payload[start:len(payload):len(payload)]})
				blk.dirty |= 1 << (uint(part[0].row) & 63)
			}
			part = part[k:]
		}
		blk.ents = append(blk.ents, old.ents...)
		if dropped { // a row may have lost its last bucket
			blk.dirty = 0
			for _, e := range blk.ents {
				blk.dirty |= 1 << (uint(e.bucket/int64(L)) & 63)
			}
		}
		if next.blocks[bi] = blk; len(blk.ents) == 0 {
			next.blocks[bi] = nil
		}
	}
	return next
}

// appendToggled appends prev with every value that occurs an odd
// number of times in toggles flipped (inserted if absent, dropped if
// present) to dst; both inputs are sorted ascending and so is the
// result.
func appendToggled(dst []int32, prev []int32, toggles []deltaEntry) []int32 {
	pi := 0
	for ti := 0; ti < len(toggles); {
		v := toggles[ti].val
		t0 := ti
		for ti < len(toggles) && toggles[ti].val == v {
			ti++
		}
		for pi < len(prev) && prev[pi] < v {
			dst = append(dst, prev[pi])
			pi++
		}
		had := pi < len(prev) && prev[pi] == v
		if had {
			pi++
		}
		if had == ((ti-t0)%2 == 0) {
			dst = append(dst, v)
		}
	}
	return append(dst, prev[pi:]...)
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
	if s, ok := vw.out.get(v, int64(v)*vw.stride+int64(lid)); ok {
		return s
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
	if s, ok := vw.in.get(v, int64(v)*vw.stride+int64(lid)); ok {
		return s
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

// HasEdge reports whether the exact edge (from, label, to) exists in
// the pinned snapshot, by binary search within the merged bucket.
func (vw *View) HasEdge(from int, label byte, to int) bool {
	_, found := slices.BinarySearch(vw.OutWith(from, label), int32(to))
	return found
}
