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
// than rebuilding and re-sorting all E edges — the
// full rebuild only runs for the first freeze, after an alphabet
// change, or when the delta exceeds deltaMergeLimit of the base. A
// delta that canceled out exactly reinstates the base as it is.
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
	g.csrBase = g.csr
	clear(g.delta) // keeps its capacity for the next round of writes
	g.deltaAdds, g.deltaDels = 0, 0
	g.deltaNewLabel = false
	g.view, g.viewLog = nil, nil // overlays of the old base are superseded
	ns := uint64(time.Since(start).Nanoseconds())
	g.freezeNanos.Add(ns)
	g.lastFreezeNanos.Store(ns)
	g.freezeDelta.Add(delta)
	g.lastFreezeDelta.Store(delta)
	return g.csr
}

// buildCSR builds the snapshot of g from scratch: two scatter passes
// over its edges (allEdges — the lists, or the base and the delta once
// the lists are dropped) and a sort of every bucket.
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
	for e := range g.allEdges() {
		lid := int(c.labelID[e.Label])
		c.outBucket[e.From*L+lid+1]++
		c.inBucket[e.To*L+lid+1]++
	}
	for i := 1; i < len(c.outBucket); i++ {
		c.outBucket[i] += c.outBucket[i-1]
		c.inBucket[i] += c.inBucket[i-1]
	}
	c.outTo = make([]int32, g.edges)
	c.inFrom = make([]int32, g.edges)
	outNext := append([]int32(nil), c.outBucket[:len(c.outBucket)-1]...)
	inNext := append([]int32(nil), c.inBucket[:len(c.inBucket)-1]...)
	for e := range g.allEdges() {
		lid := int(c.labelID[e.Label])
		oi := e.From*L + lid
		c.outTo[outNext[oi]] = int32(e.To)
		outNext[oi]++
		ii := e.To*L + lid
		c.inFrom[inNext[ii]] = int32(e.From)
		inNext[ii]++
	}
	// Sort bucket contents for determinism and binary-search membership.
	for i := 0; i < n*L; i++ {
		slices.Sort(c.outTo[c.outBucket[i]:c.outBucket[i+1]])
		slices.Sort(c.inFrom[c.inBucket[i]:c.inBucket[i+1]])
	}
	return c
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
