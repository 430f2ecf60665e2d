package graph

import (
	"fmt"
	"strings"
)

// Path is a walk in a db-graph: a vertex sequence with the labels of the
// traversed edges (len(Labels) = len(Vertices)-1). A Path with a single
// vertex and no labels is the empty path at that vertex.
type Path struct {
	Vertices []int
	Labels   []byte
}

// PathAt returns the empty path anchored at v.
func PathAt(v int) *Path { return &Path{Vertices: []int{v}} }

// Len returns the number of edges (the paper's size w(p)).
func (p *Path) Len() int { return len(p.Labels) }

// Source returns the first vertex.
func (p *Path) Source() int { return p.Vertices[0] }

// Target returns the last vertex.
func (p *Path) Target() int { return p.Vertices[len(p.Vertices)-1] }

// Word returns the concatenation of the edge labels.
func (p *Path) Word() string { return string(p.Labels) }

// IsSimple reports whether all vertices are distinct. Short walks — the
// common case — are checked by a quadratic scan that allocates nothing;
// longer ones through a set.
func (p *Path) IsSimple() bool {
	vs := p.Vertices
	if len(vs) <= 32 {
		for i := 1; i < len(vs); i++ {
			for _, u := range vs[:i] {
				if u == vs[i] {
					return false
				}
			}
		}
		return true
	}
	seen := make(map[int]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// ValidIn reports whether every step of the path is an edge of g.
func (p *Path) ValidIn(g *Graph) bool {
	if len(p.Vertices) == 0 || len(p.Labels) != len(p.Vertices)-1 {
		return false
	}
	for i, label := range p.Labels {
		if !g.HasEdge(p.Vertices[i], label, p.Vertices[i+1]) {
			return false
		}
	}
	return true
}

// Append returns a new path extended by one edge. The receiver is not
// modified.
func (p *Path) Append(label byte, to int) *Path {
	vs := make([]int, len(p.Vertices)+1)
	copy(vs, p.Vertices)
	vs[len(p.Vertices)] = to
	ls := make([]byte, len(p.Labels)+1)
	copy(ls, p.Labels)
	ls[len(p.Labels)] = label
	return &Path{Vertices: vs, Labels: ls}
}

// Concat returns p followed by q; q must start where p ends.
func (p *Path) Concat(q *Path) (*Path, error) {
	if p.Target() != q.Source() {
		return nil, fmt.Errorf("graph: cannot concatenate path ending at %d with path starting at %d", p.Target(), q.Source())
	}
	vs := make([]int, 0, len(p.Vertices)+len(q.Vertices)-1)
	vs = append(vs, p.Vertices...)
	vs = append(vs, q.Vertices[1:]...)
	ls := make([]byte, 0, len(p.Labels)+len(q.Labels))
	ls = append(ls, p.Labels...)
	ls = append(ls, q.Labels...)
	return &Path{Vertices: vs, Labels: ls}, nil
}

// RemoveLoops returns the path obtained by repeatedly deleting the
// subpath between the first repeated occurrence of a vertex (greedy loop
// elimination). The result is simple; its word is a word obtained from
// p's by deleting factors — exactly the operation that is closed for
// subword-closed languages (Mendelzon–Wood) and unsound in general
// (paper, Example 4). A walk that is already simple is returned as is
// (the receiver itself, no copy), so callers can tell by identity that
// nothing was removed.
func (p *Path) RemoveLoops() *Path {
	if p.IsSimple() {
		return p
	}
	vs := append([]int{}, p.Vertices...)
	ls := append([]byte{}, p.Labels...)
	for {
		first := map[int]int{}
		loopAt := -1
		var from, to int
		for i, v := range vs {
			if j, ok := first[v]; ok {
				loopAt, from, to = v, j, i
				break
			}
			first[v] = i
		}
		if loopAt < 0 {
			return &Path{Vertices: vs, Labels: ls}
		}
		vs = append(vs[:from], vs[to:]...)
		ls = append(ls[:from], ls[to:]...)
	}
}

// String renders the path as v0 -a-> v1 -b-> v2.
func (p *Path) String() string {
	if p == nil {
		return "<nil path>"
	}
	var b strings.Builder
	for i, v := range p.Vertices {
		if i > 0 {
			fmt.Fprintf(&b, " -%c-> ", p.Labels[i-1])
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}
