package graph

import (
	"fmt"

	"repro/internal/automaton"
)

// VGraph is a vertex-labeled graph (the paper's vl-graph): each vertex
// carries one label and edges are unlabeled. A path spells the word of
// the labels of the vertices it *enters* (all vertices but the first).
// Its only adjacency is the paper's encoding of vl-graphs as db-graphs
// (Section 4.1), in which every edge carries the label of its target
// vertex: DBGraph returns it, and queries run on it like on any Graph.
// So the Graph's contract holds: its CSR is built lazily by the first
// query, and concurrent queries need Language.Warm(vg.DBGraph()) first.
type VGraph struct {
	labels []byte
	db     *Graph
}

// NewVGraph returns a vl-graph with the given vertex labels and no edges.
func NewVGraph(labels []byte) *VGraph {
	return &VGraph{labels: append([]byte{}, labels...), db: New(len(labels))}
}

// NumVertices returns the number of vertices.
func (g *VGraph) NumVertices() int { return len(g.labels) }

// NumEdges returns the number of edges.
func (g *VGraph) NumEdges() int { return g.db.NumEdges() }

// Label returns the label of v.
func (g *VGraph) Label(v int) byte { return g.labels[v] }

// AddVertex appends a vertex with the given label.
func (g *VGraph) AddVertex(label byte) int {
	g.labels = append(g.labels, label)
	return g.db.AddVertex()
}

// AddEdge inserts the directed edge (from, to), stored as
// (from, λ(to), to); duplicates are ignored.
func (g *VGraph) AddEdge(from, to int) { g.db.AddEdge(from, g.labels[to], to) }

// Alphabet returns the set of vertex labels in use.
func (g *VGraph) Alphabet() automaton.Alphabet {
	return automaton.NewAlphabet(g.labels...)
}

// DBGraph returns the stored db-encoding (Section 4.1): every edge (u,v)
// is (u, λ(v), v), so that no vertex has two incoming edges with
// different labels. It is the vl-graph's own adjacency, not a copy:
// read and query it, and mutate through the vl-graph.
func (g *VGraph) DBGraph() *Graph { return g.db }

// EVGraph is a vertex-and-edge-labeled graph (the paper's evl-graph).
// Like VGraph it stores only its db-encoding, over the product alphabet
// Σ_V × Σ_E (see DBGraph), under the same query contract.
type EVGraph struct {
	labels []byte // vertex labels
	db     *Graph
}

// NewEVGraph returns an evl-graph with the given vertex labels.
func NewEVGraph(labels []byte) *EVGraph {
	return &EVGraph{labels: append([]byte{}, labels...), db: New(len(labels))}
}

// NumVertices returns the number of vertices.
func (g *EVGraph) NumVertices() int { return len(g.labels) }

// Label returns the vertex label of v.
func (g *EVGraph) Label(v int) byte { return g.labels[v] }

// AddVertex appends a vertex with the given label.
func (g *EVGraph) AddVertex(label byte) int {
	g.labels = append(g.labels, label)
	return g.db.AddVertex()
}

// AddEdge inserts the edge (from, edgeLabel, to), stored as
// (from, PairLabel(λ(to), edgeLabel), to).
func (g *EVGraph) AddEdge(from int, edgeLabel byte, to int) {
	g.db.AddEdge(from, PairLabel(g.labels[to], edgeLabel), to)
}

// PairLabel encodes a (vertex-label, edge-label) pair into the single
// byte used by the db-graph encoding of evl-graphs. The paper works over
// the product alphabet Σ_V × Σ_E; we realize it as an injective byte
// pairing, which callers obtain through this function when writing
// regular expressions over evl paths.
func PairLabel(vertexLabel, edgeLabel byte) byte {
	// Both labels are required to be lowercase letters; the pair is
	// mapped into the contiguous byte range starting at '0'... this
	// supports up to 8 distinct vertex and 8 distinct edge labels after
	// normalization by the caller (see EVAlphabets).
	return byte('A' + (vertexLabel-'a')%8*8 + (edgeLabel-'a')%8)
}

// DBGraph returns the stored db-encoding over the product alphabet: the
// edge (u, e, v) is (u, PairLabel(λ(v), e), v), following Section 4.1
// ("a vlc-graph can be seen as a db-graph over an alphabet Σ_V × Σ_E").
// As for VGraph, it is the evl-graph's own adjacency, not a copy.
func (g *EVGraph) DBGraph() *Graph { return g.db }

// VWordOf returns the word spelled by a vertex sequence in a vl-graph
// (labels of all vertices after the first), checking edge existence.
func (g *VGraph) VWordOf(vertices []int) (string, error) {
	if len(vertices) == 0 {
		return "", fmt.Errorf("graph: empty vertex sequence")
	}
	w := make([]byte, 0, len(vertices)-1)
	for i := 0; i+1 < len(vertices); i++ {
		u, v := vertices[i], vertices[i+1]
		if !g.db.HasEdge(u, g.labels[v], v) {
			return "", fmt.Errorf("graph: missing edge %d→%d", u, v)
		}
		w = append(w, g.labels[v])
	}
	return string(w), nil
}
