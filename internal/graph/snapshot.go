package graph

import (
	"fmt"
	"slices"

	"repro/internal/automaton"
)

// This file is the graph-side half of durable persistence
// (internal/persist): it exports the CSR's raw arrays so a snapshot
// codec can write them in their in-memory layout, validates arrays read
// back from disk (which may be hostile: truncated, bit-flipped, or
// crafted), and reconstructs a fully mutable Graph around a decoded
// CSR so a warm boot skips the scatter/sort of a full rebuild.

// CSRParts is the raw array view of a CSR snapshot — exactly the
// sections a persisted snapshot stores. Slices returned by CSR.Parts
// alias the snapshot's internal storage and must not be modified;
// slices passed to CSRFromParts are adopted by the returned CSR (they
// may alias a read-only file mapping — every CSR read path only ever
// reads them).
type CSRParts struct {
	NumVertices int
	NumEdges    int
	Labels      []byte  // sorted, deduplicated alphabet
	OutBucket   []int32 // len NumVertices*len(Labels)+1
	OutTo       []int32 // len NumEdges
	InBucket    []int32 // len NumVertices*len(Labels)+1
	InFrom      []int32 // len NumEdges
}

// Parts exposes the snapshot's raw arrays for serialization. The
// returned slices alias internal storage and must not be modified.
func (c *CSR) Parts() CSRParts {
	return CSRParts{
		NumVertices: c.n,
		NumEdges:    c.m,
		Labels:      c.labels,
		OutBucket:   c.outBucket,
		OutTo:       c.outTo,
		InBucket:    c.inBucket,
		InFrom:      c.inFrom,
	}
}

// CSRFromParts validates the raw arrays of a deserialized snapshot and
// assembles a CSR around them (adopting the slices without copying).
// Validation is a linear scan over every section — label ordering,
// bucket monotonicity, payload bounds and per-bucket sortedness — so a
// corrupt or crafted snapshot yields an error here rather than a panic
// (or a silently wrong binary search) somewhere in a kernel.
func CSRFromParts(p CSRParts) (*CSR, error) {
	n, m, L := p.NumVertices, p.NumEdges, len(p.Labels)
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: snapshot: negative dimensions (n=%d m=%d)", n, m)
	}
	if L > 256 {
		return nil, fmt.Errorf("graph: snapshot: %d labels (max 256)", L)
	}
	for i := 1; i < L; i++ {
		if p.Labels[i-1] >= p.Labels[i] {
			return nil, fmt.Errorf("graph: snapshot: labels not sorted/unique at %d", i)
		}
	}
	if m > 0 && (n == 0 || L == 0) {
		return nil, fmt.Errorf("graph: snapshot: %d edges but n=%d L=%d", m, n, L)
	}
	nL := n * L
	if int64(n)*int64(L) != int64(nL) || nL+1 < 0 {
		return nil, fmt.Errorf("graph: snapshot: bucket count n*L overflows (n=%d L=%d)", n, L)
	}
	checkSide := func(name string, bucket, payload []int32) error {
		if len(bucket) != nL+1 {
			return fmt.Errorf("graph: snapshot: %s bucket length %d, want %d", name, len(bucket), nL+1)
		}
		if len(payload) != m {
			return fmt.Errorf("graph: snapshot: %s payload length %d, want %d", name, len(payload), m)
		}
		if bucket[0] != 0 || int(bucket[nL]) != m {
			return fmt.Errorf("graph: snapshot: %s bucket bounds [%d, %d], want [0, %d]", name, bucket[0], bucket[nL], m)
		}
		for i := 1; i <= nL; i++ {
			if bucket[i] < bucket[i-1] {
				return fmt.Errorf("graph: snapshot: %s bucket %d decreases", name, i)
			}
			// Bucket contents must be sorted ascending and in vertex
			// range: HasEdge binary-searches them and the kernels index
			// rows by them.
			span := payload[bucket[i-1]:bucket[i]]
			for j, v := range span {
				if v < 0 || int(v) >= n {
					return fmt.Errorf("graph: snapshot: %s bucket %d: vertex %d out of range [0,%d)", name, i-1, v, n)
				}
				if j > 0 && span[j-1] > v {
					return fmt.Errorf("graph: snapshot: %s bucket %d not sorted", name, i-1)
				}
			}
		}
		return nil
	}
	if err := checkSide("out", p.OutBucket, p.OutTo); err != nil {
		return nil, err
	}
	if err := checkSide("in", p.InBucket, p.InFrom); err != nil {
		return nil, err
	}
	c := &CSR{
		n:         n,
		m:         m,
		labels:    automaton.Alphabet(p.Labels),
		outBucket: p.OutBucket,
		outTo:     p.OutTo,
		inBucket:  p.InBucket,
		inFrom:    p.InFrom,
	}
	for i := range c.labelID {
		c.labelID[i] = -1
	}
	for i, b := range c.labels {
		c.labelID[b] = int16(i)
	}
	return c, nil
}

// FromCSR reconstructs a mutable Graph from a decoded CSR snapshot,
// restoring the mutation epoch the snapshot was taken at. The CSR is
// installed as the graph's frozen base, so the first query after a warm
// boot pays no Freeze, and the graph is built as its first Freeze
// leaves one, without an edge log or lists: writes go to the log as the
// net delta, and OutEdges / InEdges carve the lists from the CSR's
// buckets on first use. The CSR is adopted as-is
// and must not be shared with another graph; its arrays may alias a
// read-only file mapping (the incremental freeze always allocates fresh
// arrays, so the mapping is never written).
func FromCSR(c *CSR, epoch uint64) *Graph {
	n, L := c.n, len(c.labels)
	g := &Graph{n: n, edges: c.m, csrBase: c}
	for lid := 0; lid < L; lid++ {
		count := 0
		for v := 0; v < n; v++ {
			count += int(c.outBucket[v*L+lid+1] - c.outBucket[v*L+lid])
		}
		g.labelCount[c.labels[lid]] = count
	}
	g.epoch.Store(epoch)
	return g
}

// EdgeSetEqual reports whether two graphs describe the same vertex
// count and edge set — the equality the crash-recovery suites assert
// between a recovered graph and an in-memory oracle. It compares the
// out-rows (rows: the cached lists, the edge log, or the base and the
// delta) order-insensitively, and builds no cache.
func EdgeSetEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	cmp := func(x, y Edge) int {
		if x.From != y.From {
			return x.From - y.From
		}
		if x.Label != y.Label {
			return int(x.Label) - int(y.Label)
		}
		return x.To - y.To
	}
	ra, rb := a.rows(), b.rows()
	var ea, eb []Edge
	for v := 0; v < a.NumVertices(); v++ {
		ea = slices.AppendSeq(ea[:0], ra.out(v))
		eb = slices.AppendSeq(eb[:0], rb.out(v))
		if len(ea) != len(eb) {
			return false
		}
		slices.SortFunc(ea, cmp)
		slices.SortFunc(eb, cmp)
		if !slices.Equal(ea, eb) {
			return false
		}
	}
	return true
}
