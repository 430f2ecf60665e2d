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
// boot pays no Freeze; the adjacency lists mutations operate on are
// rebuilt from the CSR's buckets in one O(V·L + E) pass — no dup
// checks, no re-sort. The CSR is adopted as-is and must not be shared
// with another graph; its arrays may alias a read-only file mapping
// (the incremental freeze always allocates fresh arrays, so the mapping
// is never written).
func FromCSR(c *CSR, epoch uint64) *Graph {
	n := c.n
	g := New(n)
	L := len(c.labels)
	// All adjacency rows are carved out of two contiguous arenas rather
	// than allocated per vertex: adoption of a large snapshot is
	// allocation-bound, and this keeps it at O(1) allocations. The
	// three-index slices pin each row's capacity to its arena region, so
	// a later AddEdge on a full row reallocates that row instead of
	// growing into its neighbor.
	outArena := make([]Edge, 0, c.m)
	inArena := make([]Edge, 0, c.m)
	for v := 0; v < n; v++ {
		outStart, inStart := len(outArena), len(inArena)
		for lid := 0; lid < L; lid++ {
			label := c.labels[lid]
			for _, to := range c.outTo[c.outBucket[v*L+lid]:c.outBucket[v*L+lid+1]] {
				outArena = append(outArena, Edge{From: v, Label: label, To: int(to)})
			}
			for _, from := range c.inFrom[c.inBucket[v*L+lid]:c.inBucket[v*L+lid+1]] {
				inArena = append(inArena, Edge{From: int(from), Label: label, To: v})
			}
		}
		if end := len(outArena); end > outStart {
			g.out[v] = outArena[outStart:end:end]
		}
		if end := len(inArena); end > inStart {
			g.in[v] = inArena[inStart:end:end]
		}
	}
	for lid := 0; lid < L; lid++ {
		count := 0
		for v := 0; v < n; v++ {
			count += int(c.outBucket[v*L+lid+1] - c.outBucket[v*L+lid])
		}
		g.labelCount[c.labels[lid]] = count
	}
	g.edges = c.m
	g.csr = c
	g.csrBase = c
	g.epoch.Store(epoch)
	return g
}

// AcyclicVerdict reports the cached acyclicity verdict without
// computing one: known is false when no verdict is cached. Persisted
// snapshots carry the verdict so a warm boot skips the O(V+E) recheck
// the tier dispatch would otherwise pay on its first query.
func (g *Graph) AcyclicVerdict() (acyclic, known bool) {
	return g.acyclic == 1, g.acyclic != 0
}

// SetAcyclicVerdict installs a cached acyclicity verdict, exactly as if
// IsAcyclic had computed it. The caller asserts the verdict is true of
// the current graph (persist restores the verdict a checkpoint saved,
// which WAL replay then keeps current through the mutators' usual
// keep-or-drop rules).
func (g *Graph) SetAcyclicVerdict(acyclic bool) {
	if acyclic {
		g.acyclic = 1
	} else {
		g.acyclic = 2
	}
}

// EdgeSetEqual reports whether two graphs describe the same vertex
// count and edge set — the equality the crash-recovery suites assert
// between a recovered graph and an in-memory oracle. It compares the
// out-adjacency multisets order-insensitively.
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
	for v := 0; v < a.NumVertices(); v++ {
		ea := slices.Clone(a.out[v])
		eb := slices.Clone(b.out[v])
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
