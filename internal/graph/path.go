package graph

import (
	"fmt"
	"slices"
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
		return simpleShort(vs)
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

// simpleShort reports whether vs repeats no vertex by a quadratic scan,
// the allocation-free check for short walks.
func simpleShort(vs []int) bool {
	for i := 1; i < len(vs); i++ {
		for _, u := range vs[:i] {
			if u == vs[i] {
				return false
			}
		}
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
//
// It runs in one pass, in O(|p| log |p|) time (removeLoops). A walk
// with loops costs the result's vertex and label slices; the Path
// header is allocated here, in the caller, which keeps it on the stack
// when it does not escape.
func (p *Path) RemoveLoops() *Path {
	if vs, ls := p.removeLoops(); vs != nil {
		return &Path{Vertices: vs, Labels: ls}
	}
	return p
}

// removeLoops splices every loop out of the walk and returns the simple
// result's vertices and labels, or nil when the walk repeats no vertex.
//
// Greedy elimination always cuts the earliest repeat, so it keeps the
// walk's first vertex, jumps to that vertex's LAST occurrence, and goes
// on from the position after it: the result is v_0, then v_{l+1} where
// l is the last occurrence of v_0, and so on. Finding each last
// occurrence needs no map: the keys v·n + i (vertex v at position i)
// are sorted, which makes every vertex's occurrences adjacent and
// ascending; each key is rewritten to i·n + last and put back at slot i.
// The jumps then write the kept vertices over the same buffer, which
// becomes the result: a kept vertex is written at a slot no later than
// the one it is read from, and every slot read later lies beyond it.
func (p *Path) removeLoops() ([]int, []byte) {
	vs, ls := p.Vertices, p.Labels
	n := len(vs)
	if n <= 32 && simpleShort(vs) {
		return nil, nil
	}
	buf := make([]int, n)
	for i, v := range vs {
		buf[i] = v*n + i
	}
	slices.Sort(buf)
	loops := false
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && buf[hi]/n == buf[lo]/n {
			hi++
		}
		last := buf[hi-1] % n
		loops = loops || hi-lo > 1
		for j := lo; j < hi; j++ {
			buf[j] = buf[j]%n*n + last
		}
		lo = hi
	}
	if !loops {
		return nil, nil
	}
	for i := range buf { // slot i ← position i's key, by following cycles
		for buf[i]/n != i {
			j := buf[i] / n
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	k := 0
	for i := 0; i < n; i = buf[i]%n + 1 {
		k++
	}
	out := make([]byte, k-1)
	k = 0
	for i := 0; i < n; k++ {
		last := buf[i] % n
		buf[k] = vs[i]
		if last+1 < n {
			out[k] = ls[last]
		}
		i = last + 1
	}
	return buf[:k:k], out
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
