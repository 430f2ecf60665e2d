package graph

import (
	"sync"

	"repro/internal/automaton"
)

// This file implements the partitioned snapshot: a frozen graph split
// into K row-range CSR shards. Shard s owns the contiguous vertex range
// [Lo(s), Hi(s)) and stores, with local row indexing, the
// label-bucketed forward adjacency of its own sources and the
// label-bucketed reverse adjacency of its own targets — exactly the
// rows a frontier-exchange product search expands when it processes
// shard s (see internal/rspq/shardbfs.go). Payload entries stay global
// vertex ids, so cross-shard edges are represented once, on the side
// that owns the row.
//
// The partition is the architectural seed of the multi-machine frontier
// exchange named in the ROADMAP: each shard is self-contained (its two
// adjacency sides plus the global partition boundaries), so promoting a
// shard to a remote worker changes where the outboxes are flushed, not
// the data layout.
//
// Like the monolithic CSR, a ShardedCSR is immutable and safe for
// concurrent readers. It is built by Freeze() when a shard count has
// been configured with SetShards, and refreshed by the same delta
// machinery: an incremental freeze merges the pending mutation delta
// into each shard independently (the per-shard slices of the sorted
// delta are disjoint), which also makes the merge embarrassingly
// parallel.

// ShardedCSR is a frozen graph snapshot partitioned into row-range
// shards. It answers the same label-restricted adjacency queries as a
// CSR, routed to the shard owning the row.
type ShardedCSR struct {
	n, m    int
	rows    int // rows per shard: ShardOf(v) = v / rows
	labels  automaton.Alphabet
	labelID [256]int16
	shards  []CSRShard
}

// CSRShard is one row-range partition of a sharded snapshot: forward
// adjacency for sources in [Lo, Hi), reverse adjacency for targets in
// [Lo, Hi), both label-bucketed with rows indexed locally.
type CSRShard struct {
	lo, hi int
	nl     int // labels per row (bucket stride)

	outBucket []int32 // (hi-lo)*nl+1 offsets into outTo
	outTo     []int32
	inBucket  []int32 // (hi-lo)*nl+1 offsets into inFrom
	inFrom    []int32
}

// NumShards returns the partition size K.
func (sc *ShardedCSR) NumShards() int { return len(sc.shards) }

// NumVertices returns the number of vertices of the snapshot.
func (sc *ShardedCSR) NumVertices() int { return sc.n }

// NumEdges returns the number of edges of the snapshot.
func (sc *ShardedCSR) NumEdges() int { return sc.m }

// Labels returns the snapshot's alphabet. The slice must not be
// modified.
func (sc *ShardedCSR) Labels() automaton.Alphabet { return sc.labels }

// NumLabels returns the number of distinct edge labels.
func (sc *ShardedCSR) NumLabels() int { return len(sc.labels) }

// Label returns the label byte with dense id lid.
func (sc *ShardedCSR) Label(lid int) byte { return sc.labels[lid] }

// LabelID returns the dense id of label, or -1 when no edge carries it.
func (sc *ShardedCSR) LabelID(label byte) int { return int(sc.labelID[label]) }

// ShardOf returns the shard owning vertex v's rows.
func (sc *ShardedCSR) ShardOf(v int) int { return v / sc.rows }

// RowsPerShard returns the row-range width of the partition (the last
// shard may be narrower).
func (sc *ShardedCSR) RowsPerShard() int { return sc.rows }

// Shard returns shard s. The returned pointer aliases internal storage
// and must be treated as read-only.
func (sc *ShardedCSR) Shard(s int) *CSRShard { return &sc.shards[s] }

// ShardEdges returns the number of edges whose source row shard s owns
// — the shard's share of the forward adjacency. Summed over all shards
// this is NumEdges.
func (sc *ShardedCSR) ShardEdges(s int) int { return len(sc.shards[s].outTo) }

// Lo returns the first vertex of the shard's row range.
func (sh *CSRShard) Lo() int { return sh.lo }

// Hi returns one past the last vertex of the shard's row range.
func (sh *CSRShard) Hi() int { return sh.hi }

// OutWithID returns the targets of v's out-edges with dense label id
// lid, sorted ascending; v must be a row of this shard. The slice
// aliases internal storage and must not be modified.
func (sh *CSRShard) OutWithID(v, lid int) []int32 {
	i := (v-sh.lo)*sh.nl + lid
	return sh.outTo[sh.outBucket[i]:sh.outBucket[i+1]]
}

// InWithID returns the sources of v's in-edges with dense label id lid,
// sorted ascending; v must be a row of this shard. The slice aliases
// internal storage and must not be modified.
func (sh *CSRShard) InWithID(v, lid int) []int32 {
	i := (v-sh.lo)*sh.nl + lid
	return sh.inFrom[sh.inBucket[i]:sh.inBucket[i+1]]
}

// OutDegree returns the number of edges leaving v, which must be a row
// of this shard — O(1) via the shard's bucket prefix sums. The
// direction-optimizing search kernels read it per discovery to keep
// their unvisited-edge estimate current.
func (sh *CSRShard) OutDegree(v int) int {
	i := (v - sh.lo) * sh.nl
	return int(sh.outBucket[i+sh.nl] - sh.outBucket[i])
}

// InDegree returns the number of edges entering v, which must be a row
// of this shard — O(1) via the shard's bucket prefix sums.
func (sh *CSRShard) InDegree(v int) int {
	i := (v - sh.lo) * sh.nl
	return int(sh.inBucket[i+sh.nl] - sh.inBucket[i])
}

// SetShards configures the snapshot partition: the next Freeze (and
// every one after) additionally builds a ShardedCSR with k row-range
// shards, retrievable with FreezeSharded and picked up by the
// frontier-exchange query kernels. k <= 0 disables sharding (the
// default). Reconfiguring drops the cached sharded snapshot and its
// merge base; like every other structural call, SetShards must not race
// queries.
func (g *Graph) SetShards(k int) {
	if k < 0 {
		k = 0
	}
	if k == g.shardCount {
		return
	}
	g.shardCount = k
	g.sharded = nil
	g.shardedBase = nil
	g.view = nil
}

// ShardCount returns the configured partition size (0 = unsharded).
func (g *Graph) ShardCount() int { return g.shardCount }

// FreezeSharded returns the partitioned snapshot of the graph, building
// it (via Freeze) if the graph has mutated since the last one. It
// returns nil when no shard count is configured. Like the CSR, the
// returned value is immutable and safe for concurrent readers, and
// remains a valid pre-mutation snapshot after further mutations.
func (g *Graph) FreezeSharded() *ShardedCSR {
	g.Freeze() // builds (or lazily re-partitions) the sharded snapshot
	return g.sharded
}

// freezeSharded refreshes g.sharded as part of Freeze(). It runs after
// the monolithic CSR is current but before the delta buffers are
// cleared, so it can reuse the same delta for the per-shard incremental
// merge. mergedDelta reports whether this freeze went down the
// incremental path (the delta buffers describe csr relative to the
// previous base).
func (g *Graph) freezeSharded(mergedDelta bool) {
	if g.shardCount <= 0 {
		g.sharded, g.shardedBase = nil, nil
		return
	}
	base := g.shardedBase
	if mergedDelta && base != nil && g.shardCount > 1 &&
		base.NumShards() == g.shardCount && base.n == g.NumVertices() {
		g.sharded = g.mergeSharded(base)
	} else {
		// For K == 1 the split aliases the monolithic arrays, so a
		// single-shard partition costs no copy and no extra memory.
		g.sharded = splitCSR(g.csr, g.shardCount)
	}
	if !g.incDisabled {
		g.shardedBase = g.sharded
	}
}

// shardBounds returns the row range of shard s in an n-vertex,
// K-sharded snapshot with the given rows-per-shard width.
func shardBounds(s, rows, n int) (lo, hi int) {
	lo = s * rows
	hi = lo + rows
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// splitCSR partitions a monolithic CSR into k row-range shards. The
// split is pure bulk copying: each shard's bucket array is the CSR's
// bucket slice for its rows rebased to zero, and its payload is the
// contiguous payload range those buckets cover.
func splitCSR(c *CSR, k int) *ShardedCSR {
	n := c.n
	rows := (n + k - 1) / k
	if rows < 1 {
		rows = 1 // empty graph: K empty shards
	}
	sc := &ShardedCSR{n: n, m: c.m, rows: rows, labels: c.labels, labelID: c.labelID, shards: make([]CSRShard, k)}
	L := len(c.labels)
	if k == 1 {
		// A single-shard partition IS the monolithic snapshot: alias its
		// arrays instead of copying all E edges (both are immutable).
		sc.shards[0] = CSRShard{lo: 0, hi: n, nl: L,
			outBucket: c.outBucket, outTo: c.outTo,
			inBucket: c.inBucket, inFrom: c.inFrom}
		return sc
	}
	for s := 0; s < k; s++ {
		lo, hi := shardBounds(s, rows, n)
		sh := &sc.shards[s]
		sh.lo, sh.hi, sh.nl = lo, hi, L
		sh.outBucket, sh.outTo = splitSide(c.outBucket, c.outTo, lo*L, hi*L)
		sh.inBucket, sh.inFrom = splitSide(c.inBucket, c.inFrom, lo*L, hi*L)
	}
	return sc
}

// splitSide cuts one adjacency side down to buckets [b0, b1): the
// bucket offsets rebased to zero plus a copy of the payload they cover.
func splitSide(bucket, payload []int32, b0, b1 int) ([]int32, []int32) {
	p0, p1 := bucket[b0], bucket[b1]
	nb := make([]int32, b1-b0+1)
	for i := range nb {
		nb[i] = bucket[b0+i] - p0
	}
	np := make([]int32, p1-p0)
	copy(np, payload[p0:p1])
	return nb, np
}

// mergeSharded produces the next partitioned snapshot by merging the
// pending delta into each shard of the previous one independently — the
// sharded analogue of mergeCSR. The sorted per-side delta is cut into
// per-shard slices (shard s owns the bucket range [lo·L, hi·L)), each
// rebased to the shard's local row indexing, and every shard runs the
// same mergeSide as the monolithic path. Shards are merged in parallel:
// their inputs and outputs are disjoint by construction.
func (g *Graph) mergeSharded(base *ShardedCSR) *ShardedCSR {
	k := base.NumShards()
	sc := &ShardedCSR{n: base.n, m: g.edges, rows: base.rows, labels: base.labels, labelID: base.labelID, shards: make([]CSRShard, k)}
	L := len(base.labels)
	outAdds := deltaSide(g.addBuf, g.csr, true)
	outDels := deltaSide(g.delBuf, g.csr, true)
	inAdds := deltaSide(g.addBuf, g.csr, false)
	inDels := deltaSide(g.delBuf, g.csr, false)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			bs := &base.shards[s]
			sh := &sc.shards[s]
			sh.lo, sh.hi, sh.nl = bs.lo, bs.hi, L
			b0, b1 := int64(bs.lo)*int64(L), int64(bs.hi)*int64(L)
			nl := (bs.hi - bs.lo) * L
			oa := rebaseDelta(cutDelta(outAdds, b0, b1), b0)
			od := rebaseDelta(cutDelta(outDels, b0, b1), b0)
			sh.outBucket, sh.outTo = mergeSide(bs.outBucket, bs.outTo, nl, oa, od,
				len(bs.outTo)+len(oa)-len(od))
			ia := rebaseDelta(cutDelta(inAdds, b0, b1), b0)
			id := rebaseDelta(cutDelta(inDels, b0, b1), b0)
			sh.inBucket, sh.inFrom = mergeSide(bs.inBucket, bs.inFrom, nl, ia, id,
				len(bs.inFrom)+len(ia)-len(id))
		}(s)
	}
	wg.Wait()
	return sc
}

// cutDelta returns the subslice of a (bucket, val)-sorted delta whose
// buckets fall in [b0, b1), by binary search on the bucket field.
func cutDelta(es []deltaEntry, b0, b1 int64) []deltaEntry {
	lo := lowerBound(es, b0)
	hi := lowerBound(es, b1)
	return es[lo:hi]
}

func lowerBound(es []deltaEntry, b int64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].bucket < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rebaseDelta shifts a shard's delta slice to local bucket indexing.
// The slice aliases the global delta, so the rebase copies.
func rebaseDelta(es []deltaEntry, b0 int64) []deltaEntry {
	if len(es) == 0 || b0 == 0 {
		return es
	}
	out := make([]deltaEntry, len(es))
	for i, e := range es {
		out[i] = deltaEntry{bucket: e.bucket - b0, val: e.val}
	}
	return out
}
