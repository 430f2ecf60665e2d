package graph

import (
	"slices"
	"time"

	"repro/internal/automaton"
)

// CSR is a frozen, query-optimized snapshot of a Graph: forward and
// reverse adjacency in compressed-sparse-row form, with every row
// bucketed by edge label so that label-restricted neighborhoods — the
// dominant access pattern of the product searches and the Ψtr summary
// solver — are contiguous sub-slices returned in O(1).
//
// Layout: labels get dense ids [0, NumLabels()); for a graph with L
// labels the forward targets live in outTo sorted by (source, label id,
// target), and bucket (v, lid) spans
// outTo[outBucket[v*L+lid] : outBucket[v*L+lid+1]]. The reverse side
// (inFrom/inBucket) mirrors this with sources grouped by edge target.
// Bucket contents are sorted ascending, so exact-edge membership is a
// binary search.
//
// A CSR is immutable; it is safe for concurrent readers. Build one with
// Graph.Freeze once construction is finished.
type CSR struct {
	n, m    int
	labels  automaton.Alphabet
	labelID [256]int16 // label byte -> dense id, -1 when absent

	outTo     []int32 // edge targets grouped by (source, label)
	outBucket []int32 // len n*L+1, bucket offsets into outTo
	inFrom    []int32 // edge sources grouped by (target, label)
	inBucket  []int32 // len n*L+1, bucket offsets into inFrom
}

// Freeze returns the CSR snapshot of the graph, building it on first
// use and caching it until the next mutation (AddEdge / RemoveEdge /
// AddVertex). After a mutation, Freeze prefers the incremental path:
// the sorted net delta accumulated since the last snapshot is merged
// into it (delta.go) with bulk copies of the untouched payload, rather
// than rebuilding all E edges — the full rebuild (buildCSR) only runs
// for the first freeze, after an alphabet change, or when the delta
// exceeds deltaMergeLimit of the base. A delta that canceled out
// exactly reinstates the base as it is.
//
// The first Freeze builds the CSR from the edge log (edgelog.go) and
// drops the log, its index and any lists read from it, so a frozen graph
// holds only the CSR and its delta, and OutEdges / InEdges report rows
// in (label, neighbour) order from then on. Every later Freeze merges
// the log's live records and empties it, keeping its capacity and its
// index's for the next round of writes.
//
// Call Freeze after construction and before sharing the graph across
// goroutines; the returned CSR itself is immutable and safe for
// concurrent readers. A CSR obtained before a mutation remains valid as
// a snapshot of the pre-mutation graph (incremental merges allocate
// fresh arrays, never touching snapshots already handed out).
func (g *Graph) Freeze() *CSR {
	if g.csr != nil {
		return g.csr
	}
	if g.deltaCanceled() {
		g.csr = g.csrBase // the base is the snapshot: nothing is built
		g.deltaNewLabel = false
		return g.csr
	}
	start := time.Now()
	delta := uint64(g.deltaAdds + g.deltaDels)
	if g.canMergeDelta() {
		g.csr = g.mergeCSR()
		g.incBuilds.Add(1)
	} else {
		g.csr = buildCSR(g)
		g.fullBuilds.Add(1)
	}
	if g.csrBase == nil { // the first freeze: the insertion order goes
		g.log, g.index = nil, nil
		g.lists.Store(nil)
	} else {
		g.log = g.log[:0]
		clear(g.index)
	}
	g.csrBase = g.csr
	g.dead, g.batchDead = 0, 0
	g.deltaAdds, g.deltaDels = 0, 0
	g.deltaNewLabel = false
	g.view = nil // overlays of the old base are superseded
	ns := uint64(time.Since(start).Nanoseconds())
	g.freezeNanos.Add(ns)
	g.lastFreezeNanos.Store(ns)
	g.freezeDelta.Add(delta)
	g.lastFreezeDelta.Store(delta)
	return g.csr
}

// buildCSR builds the snapshot of g from scratch from its live edges
// (allEdges: the log before the first Freeze, else the base and the
// delta): one pass counts every bucket and one scatters the edges to
// both sides in the order given (csrScatter). That leaves every bucket
// sorted when the edges came in (from, to) order, as a WriteText file
// has them. The benchmark builds its graphs in random order, so a side
// left unsorted is scattered again from the other side (transpose),
// which sorts it without a comparison: read by ascending row, a side
// sends each bucket its values in ascending order.
func buildCSR(g *Graph) *CSR {
	n := g.NumVertices()
	c := &CSR{n: n, m: g.edges, labels: g.Alphabet()}
	for i := range c.labelID {
		c.labelID[i] = -1
	}
	for i, b := range c.labels {
		c.labelID[b] = int16(i)
	}
	L := len(c.labels)
	c.outBucket = make([]int32, n*L+1)
	c.inBucket = make([]int32, n*L+1)
	s := csrScatter{c: c, L: L, outNext: c.outBucket[1:], inNext: c.inBucket[1:]}
	g.allEdges(&s)
	for i := 1; i < len(c.outBucket); i++ {
		c.outBucket[i] += c.outBucket[i-1]
		c.inBucket[i] += c.inBucket[i-1]
	}
	c.outTo = make([]int32, g.edges)
	c.inFrom = make([]int32, g.edges)
	s.place = true
	s.outNext = slices.Clone(c.outBucket[:n*L])
	s.inNext = slices.Clone(c.inBucket[:n*L])
	g.allEdges(&s)
	if !bucketsSorted(c.outBucket, c.outTo) {
		transpose(c.inBucket, c.inFrom, c.outBucket, c.outTo, s.outNext, L)
	}
	if !bucketsSorted(c.inBucket, c.inFrom) {
		transpose(c.outBucket, c.outTo, c.inBucket, c.inFrom, s.inNext, L)
	}
	return c
}

// csrScatter is one of buildCSR's passes over the edges: each edge
// advances its bucket's next offset on both sides, and when placing it
// is first written there. The counting pass advances the bucket ends
// themselves (next is bucket[1:]), which counts each bucket's edges.
type csrScatter struct {
	c               *CSR
	L               int
	place           bool
	outNext, inNext []int32
}

func (s *csrScatter) add(from, to uint32, label byte) {
	lid := int(s.c.labelID[label])
	oi, ii := int(from)*s.L+lid, int(to)*s.L+lid
	if s.place {
		s.c.outTo[s.outNext[oi]] = int32(to)
		s.c.inFrom[s.inNext[ii]] = int32(from)
	}
	s.outNext[oi]++
	s.inNext[ii]++
}

// bucketsSorted reports whether every bucket of a CSR side is ascending.
func bucketsSorted(bucket, payload []int32) bool {
	for b := range len(bucket) - 1 {
		if !slices.IsSorted(payload[bucket[b]:bucket[b+1]]) {
			return false
		}
	}
	return true
}

// transpose scatters one CSR side (bucket, payload) into the other:
// reading its rows in ascending order, row v's bucket (v, lid) sends v
// into bucket (u, lid) of the other side for every u it holds, so every
// bucket of the other side ends up ascending. next is scratch of the
// bucket count.
func transpose(bucket, payload, toBucket, toPayload, next []int32, L int) {
	copy(next, toBucket)
	for b := range len(bucket) - 1 {
		v, lid := int32(b/L), b%L
		for _, u := range payload[bucket[b]:bucket[b+1]] {
			i := int(u)*L + lid
			toPayload[next[i]] = v
			next[i]++
		}
	}
}

// NumVertices returns the number of vertices of the snapshot.
func (c *CSR) NumVertices() int { return c.n }

// NumEdges returns the number of edges of the snapshot.
func (c *CSR) NumEdges() int { return c.m }

// Labels returns the snapshot's alphabet (sorted, deduplicated). The
// returned slice must not be modified.
func (c *CSR) Labels() automaton.Alphabet { return c.labels }

// NumLabels returns the number of distinct edge labels.
func (c *CSR) NumLabels() int { return len(c.labels) }

// Label returns the label byte with dense id lid.
func (c *CSR) Label(lid int) byte { return c.labels[lid] }

// LabelID returns the dense id of label, or -1 when no edge carries it.
func (c *CSR) LabelID(label byte) int { return int(c.labelID[label]) }

// OutWithID returns the targets of v's out-edges labeled with dense
// label id lid, sorted ascending. The returned slice aliases internal
// storage and must not be modified.
func (c *CSR) OutWithID(v, lid int) []int32 {
	i := v*len(c.labels) + lid
	return c.outTo[c.outBucket[i]:c.outBucket[i+1]]
}

// OutWith returns the targets of v's out-edges carrying label, sorted
// ascending; nil when the label occurs nowhere in the graph.
func (c *CSR) OutWith(v int, label byte) []int32 {
	lid := c.labelID[label]
	if lid < 0 {
		return nil
	}
	return c.OutWithID(v, int(lid))
}

// InWithID returns the sources of v's in-edges labeled with dense label
// id lid, sorted ascending. The returned slice aliases internal storage
// and must not be modified.
func (c *CSR) InWithID(v, lid int) []int32 {
	i := v*len(c.labels) + lid
	return c.inFrom[c.inBucket[i]:c.inBucket[i+1]]
}

// InWith returns the sources of v's in-edges carrying label, sorted
// ascending; nil when the label occurs nowhere in the graph.
func (c *CSR) InWith(v int, label byte) []int32 {
	lid := c.labelID[label]
	if lid < 0 {
		return nil
	}
	return c.InWithID(v, int(lid))
}

// HasEdge reports whether the exact edge (from, label, to) exists, by
// binary search within the (from, label) bucket; false for a source
// outside the snapshot.
func (c *CSR) HasEdge(from int, label byte, to int) bool {
	if from < 0 || from >= c.n {
		return false
	}
	bucket := c.OutWith(from, label)
	_, found := slices.BinarySearch(bucket, int32(to))
	return found
}
