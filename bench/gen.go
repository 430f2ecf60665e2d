package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// Every input of a run — graphs, languages, request pools, the op list
// of every round — is derived from the -seed before anything is timed.
// subSeed splits the run seed into independent named streams (splitmix64
// finalizer), so adding a stream never shifts the others.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

// fixtureSeed generates what a workload holds fixed across seeds: its
// graphs and the pools its ops draw from (hot targets, their sources,
// the edges its writes toggle). The -seed decides which ops are drawn
// from the pools and in which order — the op lists. A graph drawn per
// seed puts the seed's luck into every metric: on the sparse serving
// graphs the cost of a table miss is heavy-tailed over targets (median
// 32 product pairs visited, p99 16 000) and Zipf puts a sixth of the
// reads on one target; with targets drawn per seed reads_per_s differed
// 30–50 % between seeds.
const fixtureSeed = 2013

// edgeList is a graph as generated: the bench builds every live
// graph.Graph (and every rspqd graph file) from one of these, so the
// timed set-up and the oracle copy start from identical inputs.
type edgeList struct {
	n     int
	edges []graph.Edge
}

func listOf(g *graph.Graph) edgeList {
	return edgeList{n: g.NumVertices(), edges: g.Edges()}
}

func (l edgeList) build() *graph.Graph {
	g := graph.New(l.n)
	for _, e := range l.edges {
		g.AddEdge(e.From, e.Label, e.To)
	}
	return g
}

// writeFile writes the list in rspqd's -graph line format.
func (l edgeList) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 64)
	buf = append(buf, "n "...)
	buf = strconv.AppendInt(buf, int64(l.n), 10)
	buf = append(buf, '\n')
	w.Write(buf)
	for _, e := range l.edges {
		buf = append(buf[:0], "e "...)
		buf = strconv.AppendInt(buf, int64(e.From), 10)
		buf = append(buf, ' ', e.Label, ' ')
		buf = strconv.AppendInt(buf, int64(e.To), 10)
		buf = append(buf, '\n')
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// randomGraph draws m distinct edges over n vertices with uniform
// labels — the shape of graph.StreamingWorkload and of rspqbench's
// flood/dist fixtures, seeded from the run seed.
func randomGraph(n, m int, labels string, rng *rand.Rand) edgeList {
	g := graph.New(n)
	l := edgeList{n: n, edges: make([]graph.Edge, 0, m)}
	for g.NumEdges() < m {
		e := graph.Edge{From: rng.Intn(n), Label: labels[rng.Intn(len(labels))], To: rng.Intn(n)}
		before := g.NumEdges()
		g.AddEdge(e.From, e.Label, e.To)
		if g.NumEdges() > before {
			l.edges = append(l.edges, e)
		}
	}
	return l
}

// flipPool draws the edges a workload's writes toggle: size distinct
// edges, the even ones present in the base list, the odd ones absent
// from it. Toggling pool edges at random keeps the graph within base ±
// pool and, since the pool starts half present and half absent, in the
// same statistical state from the first write to the last: every round
// sees the same kind of graph and the edge count stays stationary.
func flipPool(base edgeList, labels string, size int, rng *rand.Rand) []graph.Edge {
	taken := make(map[graph.Edge]bool, len(base.edges)+size)
	for _, e := range base.edges {
		taken[e] = false // present, not yet in the pool
	}
	out := make([]graph.Edge, 0, size)
	for len(out) < size {
		var e graph.Edge
		if len(out)%2 == 0 {
			e = base.edges[rng.Intn(len(base.edges))]
			if taken[e] {
				continue
			}
		} else {
			e = graph.Edge{From: rng.Intn(base.n), Label: labels[rng.Intn(len(labels))], To: rng.Intn(base.n)}
			if _, ok := taken[e]; ok {
				continue
			}
		}
		taken[e] = true
		out = append(out, e)
	}
	return out
}

// flipBatch draws one mutation batch for graph.FlipEdges / POST /edges:
// size distinct edges of the pool.
func flipBatch(pool []graph.Edge, size int, rng *rand.Rand) []graph.Edge {
	out := make([]graph.Edge, 0, size)
	seen := make(map[int]bool, size)
	for len(out) < size {
		i := rng.Intn(len(pool))
		if !seen[i] {
			seen[i] = true
			out = append(out, pool[i])
		}
	}
	return out
}

// plantSource walks backward from y along in-edges, tracking the set of
// DFA states from which the labels walked so far lead to acceptance, and
// stops at a vertex where the start state is in that set: a source x
// with an L-labeled walk to y — on sparse graphs almost always a simple
// path. ok is false when the walk dies out first.
func plantSource(g *graph.Graph, d *automaton.DFA, y, maxLen int, rng *rand.Rand) (x int, ok bool) {
	states := append([]bool(nil), d.Accept...)
	next := make([]bool, d.NumStates)
	want := 1 + rng.Intn(maxLen)
	v := y
	var cand []graph.Edge
	for step := 1; step <= maxLen; step++ {
		cand = cand[:0]
		for _, e := range g.InEdges(v) {
			for q := 0; q < d.NumStates; q++ {
				if t, has := d.StepOK(q, e.Label); has && states[t] {
					cand = append(cand, e)
					break
				}
			}
		}
		if len(cand) == 0 {
			return 0, false
		}
		e := cand[rng.Intn(len(cand))]
		for q := range next {
			t, has := d.StepOK(q, e.Label)
			next[q] = has && states[t]
		}
		states, next = next, states
		v = e.From
		if states[d.Start] && step >= want && v != y {
			return v, true
		}
	}
	return 0, false
}

// backwardShape measures the set a backward sweep from y visits — the
// (vertex, state) pairs of the product from which y is reachable with
// acceptance — by its size and its depth in BFS levels: what a
// table-miss read of target y costs a level-synchronous kernel. The
// sweep stops once the size passes limit.
func backwardShape(g *graph.Graph, d *automaton.DFA, y, limit int) (size, depth int) {
	type vq struct{ v, q int }
	seen := map[vq]bool{}
	var level []vq
	for q, acc := range d.Accept {
		if acc {
			seen[vq{y, q}] = true
			level = append(level, vq{y, q})
		}
	}
	for ; len(level) > 0 && len(seen) <= limit; depth++ {
		var next []vq
		for _, cur := range level {
			for _, e := range g.InEdges(cur.v) {
				for p := 0; p < d.NumStates; p++ {
					if t, has := d.StepOK(p, e.Label); has && t == cur.q && !seen[vq{e.From, p}] {
						seen[vq{e.From, p}] = true
						next = append(next, vq{e.From, p})
					}
				}
			}
		}
		level = next
	}
	return len(seen), depth
}

// sourcesFor returns count sources for target y: first, then planted
// ones up to half of count (uniform where a planting dies out), then
// uniform ones — so about half the pairs (x, y) have an L-labeled walk.
func sourcesFor(g *graph.Graph, d *automaton.DFA, y, first, count int, rng *rand.Rand) []int {
	xs := []int{first}
	for len(xs) < count {
		x := rng.Intn(g.NumVertices())
		if len(xs) < count/2 {
			if px, ok := plantSource(g, d, y, 8, rng); ok {
				x = px
			}
		}
		xs = append(xs, x)
	}
	return xs
}

// plantPair draws a target and plants a source for it, retrying a few
// times; ok is false when no try took.
func plantPair(g *graph.Graph, d *automaton.DFA, maxLen int, rng *rand.Rand) (x, y int, ok bool) {
	for try := 0; try < 8; try++ {
		y = rng.Intn(g.NumVertices())
		if x, ok = plantSource(g, d, y, maxLen, rng); ok {
			return x, y, true
		}
	}
	return 0, 0, false
}

// digester folds generated inputs into one hex digest, printed with
// every result: same seed, same digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digester) edges(l edgeList) {
	d.ints(l.n, len(l.edges))
	for _, e := range l.edges {
		d.ints(e.From, int(e.Label), e.To)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
