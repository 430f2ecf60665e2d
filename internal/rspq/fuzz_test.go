package rspq

import (
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// fuzzSizeCap bounds a fuzzed pattern's expanded size, as FuzzParseRegex
// bounds the ones it determinizes: larger ones take the classifier and
// the DFA construction, not the solvers, past the fuzz budget.
const fuzzSizeCap = 40

// expandedSize is the size of r with every bounded repeat written out,
// or limit once it reaches limit — FuzzParseRegex's measure
// (internal/automaton).
func expandedSize(r *automaton.Regex, limit int) int {
	n := 1
	for _, s := range r.Subs {
		n += expandedSize(s, limit)
		if n >= limit {
			return limit
		}
	}
	if r.Op == automaton.OpRepeat {
		copies := max(r.Min, r.Max) + 1
		if copies >= limit || n*copies >= limit {
			return limit
		}
		n *= copies
	}
	return n
}

// fuzzGraph decodes an edge list into a graph on n = 1 + n8%8 vertices
// over {a, b, c}: each byte is one edge, from its bits 0–2, to its bits
// 3–5 (both mod n), labelled by its bits 6–7 (mod 3). At most 64 edges.
func fuzzGraph(n8 uint8, edges []byte) *graph.Graph {
	n := 1 + int(n8%8)
	g := graph.New(n)
	for _, b := range edges[:min(len(edges), 64)] {
		g.AddEdge(int(b&7)%n, "abc"[(b>>6)%3], int(b>>3&7)%n)
	}
	return g
}

// FuzzSolve holds every query surface against the exponential ground
// truth on fuzzed languages and graphs of at most 8 vertices: Solve
// finds a path exactly when Baseline does, Shortest's is as long as
// BaselineShortest's, every witness is a simple L-labeled path of the
// graph, the existence-only answers equal Found, and the BatchSolver
// and the Engine return the Solver's witness. It is what catches a
// rerouting between tiers — the walk-first step above all — that the
// fixed suites miss. The seed corpus (testdata/fuzz/FuzzSolve) holds
// the catalog's languages on small graphs, and finite languages whose
// words share prefixes and differ in length (finite-prefix-*,
// finite-depth-*), each with a found and a not-found pair, on graphs
// where the shortest words have only walks that repeat a vertex: the
// finite tier's deepening must go past them, up to its cap.
func FuzzSolve(f *testing.F) {
	f.Add("a*(bb+|())c*", uint8(5), []byte{0x08, 0x51, 0x5a, 0x63, 0x20}, uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, pattern string, n8 uint8, edges []byte, x8, y8 uint8) {
		r, err := automaton.ParseRegex(pattern)
		if err != nil || expandedSize(r, fuzzSizeCap) >= fuzzSizeCap {
			return
		}
		s, err := NewSolverFromRegex(r)
		if err != nil {
			return
		}
		g := fuzzGraph(n8, edges)
		n := g.NumVertices()
		x, y := int(x8)%n, int(y8)%n

		want, wantShort := Baseline(g, s.Min, x, y, nil), BaselineShortest(g, s.Min, x, y, nil)
		if want.Found != wantShort.Found {
			t.Fatalf("%q (%d,%d): Baseline %v, BaselineShortest %v", pattern, x, y, want.Found, wantShort.Found)
		}
		solved, short := s.Solve(g, x, y), s.Shortest(g, x, y)
		pairs := []Pair{{X: x, Y: y}}
		bs := NewBatchSolver(s, g)
		batched, engined := bs.Solve(pairs)[0], NewEngine(s, g, EngineConfig{}).Solve(x, y)
		for _, got := range []struct {
			who string
			res Result
		}{
			{"Solve", solved},
			{"Shortest", short},
			{"BatchSolver.Solve", batched},
			{"Engine.Solve", engined},
			{"BatchSolver.SolveExists", Result{Found: bs.SolveExists(pairs)[0]}},
			// A fresh engine, so the existence bit is not the cached witness's.
			{"Engine.Exists", Result{Found: NewEngine(s, g, EngineConfig{}).Exists(x, y)}},
		} {
			if got.res.Found != want.Found {
				t.Fatalf("%q tier %v (%d,%d): %s found=%v, Baseline %v\ngraph:\n%s", pattern, s.ChooseAlgorithm(g), x, y, got.who, got.res.Found, want.Found, g)
			}
			if got.res.Path != nil && !VerifyWitness(got.res, g, s.Min, x, y) {
				t.Fatalf("%q (%d,%d): %s returned %v, not a simple L-path\ngraph:\n%s", pattern, x, y, got.who, got.res.Path, g)
			}
		}
		if short.Found && short.Path.Len() != wantShort.Path.Len() {
			t.Fatalf("%q (%d,%d): Shortest %v, BaselineShortest %v\ngraph:\n%s", pattern, x, y, short.Path, wantShort.Path, g)
		}
		if !solved.Found {
			return
		}
		for who, res := range map[string]Result{"BatchSolver.Solve": batched, "Engine.Solve": engined} {
			if !slices.Equal(res.Path.Vertices, solved.Path.Vertices) || res.Path.Word() != solved.Path.Word() {
				t.Fatalf("%q (%d,%d): %s %v, Solver.Solve %v", pattern, x, y, who, res.Path, solved.Path)
			}
		}
	})
}

// fuzzVGraph decodes a vl-graph on n = 1 + n8%8 vertices: vertex i is
// labelled "abc"[(labels>>2i & 3) % 3], and each edge byte is one edge,
// from its bits 0–2 to its bits 3–5 (both mod n). At most 64 edges.
func fuzzVGraph(n8 uint8, labels uint16, edges []byte) *graph.VGraph {
	n := 1 + int(n8%8)
	ls := make([]byte, n)
	for i := range ls {
		ls[i] = "abc"[(labels>>(2*i)&3)%3]
	}
	vg := graph.NewVGraph(ls)
	for _, b := range edges[:min(len(edges), 64)] {
		vg.AddEdge(int(b&7)%n, int(b>>3&7)%n)
	}
	return vg
}

// FuzzSolveVlg holds SolveVlg against the exponential ground truth on
// the vl-graph's db-encoding: it finds a path exactly when Baseline
// does, and its witness is a simple L-labeled path of the encoding
// whose vertex word (VWordOf) is in L. The seed corpus
// (testdata/fuzz/FuzzSolveVlg) holds the paper's vl languages, each
// with a found and a not-found pair.
func FuzzSolveVlg(f *testing.F) {
	f.Add("(ab)*", uint8(4), uint16(0b00_01_00_00), []byte{0x08, 0x11, 0x1a}, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, pattern string, n8 uint8, labels uint16, edges []byte, x8, y8 uint8) {
		r, err := automaton.ParseRegex(pattern)
		if err != nil || expandedSize(r, fuzzSizeCap) >= fuzzSizeCap {
			return
		}
		s, err := NewSolverFromRegex(r)
		if err != nil {
			return
		}
		vg := fuzzVGraph(n8, labels, edges)
		db := vg.DBGraph()
		n := vg.NumVertices()
		x, y := int(x8)%n, int(y8)%n

		got, want := s.SolveVlg(vg, x, y), Baseline(db, s.Min, x, y, nil)
		if got.Found != want.Found {
			t.Fatalf("%q tier %v (%d,%d): SolveVlg found=%v, Baseline %v\ngraph:\n%s", pattern, s.ChooseAlgorithm(db), x, y, got.Found, want.Found, db)
		}
		if !got.Found {
			return
		}
		if !VerifyWitness(got, db, s.Min, x, y) {
			t.Fatalf("%q (%d,%d): SolveVlg returned %v, not a simple L-path\ngraph:\n%s", pattern, x, y, got.Path, db)
		}
		if w, err := vg.VWordOf(got.Path.Vertices); err != nil || !s.Min.Member(w) {
			t.Fatalf("%q (%d,%d): vertex word %q (%v) of %v not in L", pattern, x, y, w, err, got.Path)
		}
	})
}
