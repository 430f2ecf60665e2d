package rspq

import (
	"sort"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// Finite answers RSPQ(L) for finite languages — the AC⁰ tier of
// Theorem 2. Each word w ∈ L is matched by a word-constrained simple
// path search (the FO-expressible predicate path_w(x,y) of Lemma 17's
// easiness proof). Words are tried in increasing length, so the result
// is a shortest simple L-labeled path.
//
// Warm solvers precompute the word list once (see Solver); this entry
// point re-derives it from the DFA for standalone callers.
func Finite(g *graph.Graph, d *automaton.DFA, x, y int) Result {
	if !validPair(g.NumVertices(), x, y) {
		return Result{}
	}
	min := d.Minimize()
	if !min.IsFinite() {
		// Guard against misuse; the dispatcher never routes infinite
		// languages here.
		return Baseline(g, d, x, y, nil)
	}
	return finiteWithWords(g.PinView(), finiteWords(min), x, y)
}

// finiteWords lists the words of a finite language recognized by the
// minimal DFA min, sorted by (length, lexicographic) so that the first
// witness found is shortest.
func finiteWords(min *automaton.DFA) []string {
	// Longest word of a finite language < number of DFA states.
	words := min.Words(min.NumStates, -1)
	sort.Slice(words, func(i, j int) bool {
		if len(words[i]) != len(words[j]) {
			return len(words[i]) < len(words[j])
		}
		return words[i] < words[j]
	})
	return words
}

// finiteWithWords runs the word-by-word search over a precomputed,
// (length, lex)-sorted word list against a pinned snapshot view.
func finiteWithWords(vw *graph.View, words []string, x, y int) Result {
	for _, w := range words {
		if p := wordPath(vw, w, x, y); p != nil {
			return Result{Found: true, Path: p}
		}
	}
	return Result{}
}

// wsearch is the scratch of one word-constrained simple-path search; a
// struct (not a closure) so recursion does not allocate.
type wsearch struct {
	vw *graph.View
	a  *arena
	w  string
	y  int
	vs []int
	ls []byte
}

func (s *wsearch) dfs(v, i int) bool {
	if i == len(s.w) {
		return v == s.y
	}
	label := s.w[i]
	for _, to32 := range s.vw.OutWith(v, label) {
		to := int(to32)
		if s.a.seen.has(to) {
			continue
		}
		// The endpoint must be reached exactly at the last letter.
		if to == s.y && i != len(s.w)-1 {
			continue
		}
		s.a.seen.add(to)
		s.vs = append(s.vs, to)
		s.ls = append(s.ls, label)
		if s.dfs(to, i+1) {
			return true
		}
		s.a.seen.remove(to)
		s.vs = s.vs[:len(s.vs)-1]
		s.ls = s.ls[:len(s.ls)-1]
	}
	return false
}

// wordPath finds a simple path from x to y spelling exactly w, by
// depth-first search over the |w| positions against the view's
// label-bucketed adjacency.
func wordPath(vw *graph.View, w string, x, y int) *graph.Path {
	if x == y {
		if w == "" {
			return graph.PathAt(x)
		}
		return nil
	}
	if w == "" {
		return nil
	}
	a := getArena()
	defer a.release()
	s := wsearch{vw: vw, a: a, w: w, y: y}
	a.seen.reset(s.vw.NumVertices())
	a.seen.add(x)
	s.vs = append(a.vs[:0], x)
	s.ls = a.ls[:0]
	defer func() { a.vs, a.ls = s.vs[:0], s.ls[:0] }()
	if s.dfs(x, 0) {
		return &graph.Path{
			Vertices: append([]int(nil), s.vs...),
			Labels:   append([]byte(nil), s.ls...),
		}
	}
	return nil
}

// DAG answers RSPQ(L) on acyclic graphs, where every walk is simple and
// the problem collapses to classical RPQ evaluation — the immediate
// case of Theorem 8 (DAGs have directed treewidth 0). The returned
// path is a shortest simple L-labeled path. It returns ok=false when
// the graph is not acyclic.
func DAG(g *graph.Graph, d *automaton.DFA, x, y int) (Result, bool) {
	if !g.IsAcyclic() {
		return Result{}, false
	}
	return pathResult(ShortestWalk(g, d, x, y)), true // nil for out-of-range x/y too
}
