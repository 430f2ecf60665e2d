package graph

import (
	"math/rand"
)

// This file contains the seeded workload generators. The paper publishes
// no datasets; these generators synthesize the graph families its theory
// talks about (random db-graphs, grids, DAGs, the Figure-4 counterexample
// family, the loop-trap family, and domain-shaped graphs for the
// examples). All generators are deterministic in their seed.

// Random returns a random db-graph with n vertices where each ordered
// vertex pair (u,v), u≠v, carries an edge with probability p, labeled
// uniformly from labels. A deterministic rand.Source seeded with seed
// drives all choices.
func Random(n int, labels []byte, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if rng.Float64() < p {
				g.AddEdge(u, labels[rng.Intn(len(labels))], v)
			}
		}
	}
	return g
}

// RandomRegular returns a random db-graph where every vertex has outDeg
// outgoing edges to distinct random targets with uniform random labels.
func RandomRegular(n int, labels []byte, outDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		perm := rng.Perm(n)
		added := 0
		for _, v := range perm {
			if v == u {
				continue
			}
			g.AddEdge(u, labels[rng.Intn(len(labels))], v)
			added++
			if added >= outDeg {
				break
			}
		}
	}
	return g
}

// Grid returns a rows×cols directed grid: right edges labeled rightLabel,
// down edges labeled downLabel. Vertex (r,c) has id r*cols+c. Grid graphs
// are the family for which Barrett et al. prove RSPQ stays NP-complete
// (related work of the paper).
func Grid(rows, cols int, rightLabel, downLabel byte) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), rightLabel, id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), downLabel, id(r+1, c))
			}
		}
	}
	return g
}

// LayeredDAG returns a DAG with the given number of layers, each of the
// given width; every vertex gets outDeg random edges into the next layer
// with uniform random labels. Vertex l*width+i is the i-th vertex of
// layer l. DAGs exercise Theorem 8's polynomial combined complexity.
func LayeredDAG(layers, width, outDeg int, labels []byte, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(layers * width)
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			from := l*width + i
			for d := 0; d < outDeg; d++ {
				to := (l+1)*width + rng.Intn(width)
				g.AddEdge(from, labels[rng.Intn(len(labels))], to)
			}
		}
	}
	return g
}

// LabeledPath returns the path graph spelling w; the returned source and
// target are its endpoints.
func LabeledPath(w string) (g *Graph, source, target int) {
	g = New(1)
	source = 0
	cur := 0
	for i := 0; i < len(w); i++ {
		next := g.AddVertex()
		g.AddEdge(cur, w[i], next)
		cur = next
	}
	return g, source, cur
}

// LabeledCycle returns a cycle spelling w repeatedly; vertex 0 is on the
// cycle.
func LabeledCycle(w string) *Graph {
	g := New(len(w))
	for i := 0; i < len(w); i++ {
		g.AddEdge(i, w[i], (i+1)%len(w))
	}
	return g
}

// Figure4 builds the paper's Figure 4 counterexample to naive loop
// elimination for L = a*(bb+|())c*, parameterized by k (the paper needs
// k ≥ N). The graph consists of an a-labeled path x_0…x_{2k}, a
// c-labeled path y_0…y_{2k}, and a b-labeled path from x_{2k} to y_0 that
// passes through x_k after k steps and through y_k immediately after.
// The query (X0, Y2k) has an L-labeled walk but no simple L-labeled path,
// and removing either loop of the walk breaks membership in L.
type Figure4 struct {
	G       *Graph
	X0, X2k int
	Y0, Y2k int
	Xmid    int // x_k, the first self-intersection
	Ymid    int // y_k, the second self-intersection
}

// NewFigure4 constructs the Figure 4 instance for the given k ≥ 1.
func NewFigure4(k int) *Figure4 {
	g := New(0)
	xs := make([]int, 2*k+1)
	ys := make([]int, 2*k+1)
	for i := range xs {
		xs[i] = g.AddVertex()
	}
	for i := range ys {
		ys[i] = g.AddVertex()
	}
	for i := 0; i < 2*k; i++ {
		g.AddEdge(xs[i], 'a', xs[i+1])
		g.AddEdge(ys[i], 'c', ys[i+1])
	}
	// b-path from x_{2k} to y_0 of length 2k, hitting x_k after k steps
	// and y_k right after.
	cur := xs[2*k]
	for i := 1; i < k; i++ {
		next := g.AddVertex()
		g.AddEdge(cur, 'b', next)
		cur = next
	}
	g.AddEdge(cur, 'b', xs[k])
	g.AddEdge(xs[k], 'b', ys[k])
	cur = ys[k]
	for i := 1; i < k; i++ {
		next := g.AddVertex()
		g.AddEdge(cur, 'b', next)
		cur = next
	}
	g.AddEdge(cur, 'b', ys[0])
	return &Figure4{G: g, X0: xs[0], X2k: xs[2*k], Y0: ys[0], Y2k: ys[2*k], Xmid: xs[k], Ymid: ys[k]}
}

// LoopTrap builds a family on which the naive "shortest regular walk +
// loop elimination" heuristic provably answers NO although a simple
// L-labeled path exists, for L = a*bba*. The short route loops twice on a
// b-self-loop vertex (so loop elimination erases the b's), while a
// strictly longer simple route with an a-detour of the given length
// carries the only simple L-labeled path.
type LoopTrap struct {
	G    *Graph
	X, Y int
}

// NewLoopTrap constructs the trap with detourLen ≥ 1 extra a-edges on the
// good route.
func NewLoopTrap(detourLen int) *LoopTrap {
	g := New(0)
	x := g.AddVertex()
	y := g.AddVertex()
	// Bad short route: x -a-> u, u -b-> u (self loop), u -a-> y.
	u := g.AddVertex()
	g.AddEdge(x, 'a', u)
	g.AddEdge(u, 'b', u)
	g.AddEdge(u, 'a', y)
	// Good route: x -a^detourLen-> p -b-> q -b-> r -a-> y, all fresh.
	cur := x
	for i := 0; i < detourLen; i++ {
		next := g.AddVertex()
		g.AddEdge(cur, 'a', next)
		cur = next
	}
	q := g.AddVertex()
	r := g.AddVertex()
	g.AddEdge(cur, 'b', q)
	g.AddEdge(q, 'b', r)
	g.AddEdge(r, 'a', y)
	return &LoopTrap{G: g, X: x, Y: y}
}

// RandomVGraph returns a random vertex-labeled graph: labels uniform from
// labels, each ordered pair an edge with probability p.
func RandomVGraph(n int, labels []byte, p float64, seed int64) *VGraph {
	rng := rand.New(rand.NewSource(seed))
	ls := make([]byte, n)
	for i := range ls {
		ls[i] = labels[rng.Intn(len(labels))]
	}
	g := NewVGraph(ls)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Lollipop returns a graph made of a simple a-path of length pathLen from
// the source into a fully-connected a-labeled clique of size cliqueSize;
// the target sits across the clique. Classic stress shape for simple-path
// search.
func Lollipop(pathLen, cliqueSize int) (g *Graph, source, target int) {
	g = New(0)
	source = g.AddVertex()
	cur := source
	for i := 0; i < pathLen; i++ {
		next := g.AddVertex()
		g.AddEdge(cur, 'a', next)
		cur = next
	}
	clique := make([]int, cliqueSize)
	for i := range clique {
		clique[i] = g.AddVertex()
	}
	g.AddEdge(cur, 'a', clique[0])
	for i := range clique {
		for j := range clique {
			if i != j {
				g.AddEdge(clique[i], 'a', clique[j])
			}
		}
	}
	target = clique[cliqueSize-1]
	return g, source, target
}

// StreamingWorkload synthesizes the mutate-heavy benchmark shape of
// BenchmarkFreeze and BenchmarkEngineMutate: a random
// graph with m edges over m/3 vertices and labels {a,b,c}, plus a
// mutation set of ⌈ratio·m⌉ random edges to be applied with FlipEdges.
// Deterministic in seed.
func StreamingWorkload(m int, ratio float64, seed int64) (*Graph, []Edge) {
	n := m / 3
	g := New(n)
	rng := rand.New(rand.NewSource(seed))
	labels := []byte{'a', 'b', 'c'}
	for g.NumEdges() < m {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	muts := make([]Edge, int(float64(m)*ratio))
	for i := range muts {
		muts[i] = Edge{From: rng.Intn(n), Label: labels[rng.Intn(len(labels))], To: rng.Intn(n)}
	}
	return g, muts
}

// FlipEdges applies one mutation epoch of a streaming workload: every
// edge in muts is removed when present and added otherwise, so repeated
// application churns the CSR while keeping the graph near its original
// size (and its alphabet fixed, so refreezes stay mergeable).
func FlipEdges(g *Graph, muts []Edge) {
	for _, e := range muts {
		if !g.RemoveEdge(e.From, e.Label, e.To) {
			g.AddEdge(e.From, e.Label, e.To)
		}
	}
}
