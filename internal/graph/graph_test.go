package graph

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestGraphBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(0, 'a', 1) // duplicate, ignored
	g.AddEdge(0, 'b', 1) // parallel with different label, kept

	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 'a', 1) || g.HasEdge(0, 'c', 1) {
		t.Error("HasEdge wrong")
	}
	if len(g.OutEdges(0)) != 2 || len(g.InEdges(1)) != 2 {
		t.Error("adjacency wrong")
	}
	if got := g.Alphabet().String(); got != "{ab}" {
		t.Errorf("alphabet %s", got)
	}
	v := g.AddNamedVertex("hub")
	if g.Name(v) != "hub" || g.Name(0) != "v0" {
		t.Error("names wrong")
	}
}

func TestAddWordEdge(t *testing.T) {
	g := New(2)
	mids, err := g.AddWordEdge(0, "abc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mids) != 2 {
		t.Fatalf("mids = %v", mids)
	}
	p := &Path{Vertices: []int{0, mids[0], mids[1], 1}, Labels: []byte("abc")}
	if !p.ValidIn(g) {
		t.Error("word edge path invalid")
	}
	if _, err := g.AddWordEdge(0, "", 1); err == nil {
		t.Error("empty word must error")
	}
	g2 := New(2)
	if _, err := g2.AddWordEdge(0, "x", 1); err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 'x', 1) {
		t.Error("single-letter word edge should be a direct edge")
	}
}

func TestPathOps(t *testing.T) {
	p := PathAt(0).Append('a', 1).Append('b', 2)
	if p.Word() != "ab" || p.Len() != 2 || p.Source() != 0 || p.Target() != 2 {
		t.Fatalf("path basics wrong: %v", p)
	}
	if !p.IsSimple() {
		t.Error("should be simple")
	}
	loop := p.Append('c', 1)
	if loop.IsSimple() {
		t.Error("should not be simple")
	}
	q := PathAt(2).Append('d', 3)
	pq, err := p.Concat(q)
	if err != nil || pq.Word() != "abd" {
		t.Fatalf("concat: %v %v", pq, err)
	}
	if _, err := q.Concat(p); err == nil {
		t.Error("mismatched concat must error")
	}
}

func TestRemoveLoops(t *testing.T) {
	// 0 -a-> 1 -b-> 1 -b-> 1 -a-> 2 : collapses to 0 -a-> 1 -a-> 2.
	p := &Path{Vertices: []int{0, 1, 1, 1, 2}, Labels: []byte("abba")}
	r := p.RemoveLoops()
	if !r.IsSimple() || r.Word() != "aa" {
		t.Errorf("RemoveLoops: %v word %q", r, r.Word())
	}
	// Already simple: unchanged.
	s := &Path{Vertices: []int{0, 1, 2}, Labels: []byte("xy")}
	if got := s.RemoveLoops(); got.Word() != "xy" {
		t.Errorf("simple path changed: %v", got)
	}
}

func TestTopoAndAcyclic(t *testing.T) {
	dag := LayeredDAG(4, 3, 2, []byte{'a', 'b'}, 1)
	if !dag.IsAcyclic() {
		t.Error("layered DAG must be acyclic")
	}
	order := dag.TopoOrder()
	if order == nil {
		t.Fatal("topo order missing")
	}
	pos := make([]int, dag.NumVertices())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range dag.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatal("topo order violated")
		}
	}
	cyc := LabeledCycle("ab")
	if cyc.IsAcyclic() || cyc.TopoOrder() != nil {
		t.Error("cycle must not be acyclic")
	}
}

func TestGenerators(t *testing.T) {
	r1 := Random(20, []byte{'a', 'b'}, 0.2, 5)
	r2 := Random(20, []byte{'a', 'b'}, 0.2, 5)
	if r1.NumEdges() != r2.NumEdges() {
		t.Error("Random not deterministic in seed")
	}
	rr := RandomRegular(15, []byte{'a'}, 3, 9)
	for v := 0; v < rr.NumVertices(); v++ {
		if len(rr.OutEdges(v)) != 3 {
			t.Fatalf("vertex %d has %d out-edges, want 3", v, len(rr.OutEdges(v)))
		}
	}
	grid := Grid(3, 4, 'r', 'd')
	if grid.NumVertices() != 12 || grid.NumEdges() != 3*3+2*4 {
		t.Errorf("grid n=%d m=%d", grid.NumVertices(), grid.NumEdges())
	}
	gp, s, tt := LabeledPath("abc")
	if gp.NumVertices() != 4 || s != 0 || tt != 3 {
		t.Error("LabeledPath wrong")
	}
	lol, src, dst := Lollipop(3, 4)
	if lol.NumVertices() != 1+3+4 || src == dst {
		t.Error("Lollipop wrong")
	}
}

// TestRandomOutRegular pins the linear-time generator: every vertex has
// exactly outDeg out-edges to distinct targets, none of them itself; the
// same seed gives the same graph; and a 50k-vertex, out-degree-3 graph
// builds in well under a second — RandomRegular's per-vertex permutation
// makes that size quadratic.
func TestRandomOutRegular(t *testing.T) {
	labels := []byte{'a', 'b', 'c'}
	for _, c := range []struct{ n, d int }{{1, 3}, {5, 4}, {5, 9}, {200, 3}, {300, 40}} {
		g := RandomOutRegular(c.n, labels, c.d, 11)
		again := RandomOutRegular(c.n, labels, c.d, 11)
		want := min(c.d, c.n-1)
		if g.NumEdges() != c.n*want {
			t.Fatalf("n=%d d=%d: %d edges, want %d", c.n, c.d, g.NumEdges(), c.n*want)
		}
		for u := 0; u < c.n; u++ {
			seen := map[int]bool{}
			for i, e := range g.OutEdges(u) {
				if e.To == u || seen[e.To] {
					t.Fatalf("n=%d d=%d: vertex %d repeats or loops on target %d", c.n, c.d, u, e.To)
				}
				seen[e.To] = true
				if e != again.OutEdges(u)[i] {
					t.Fatalf("n=%d d=%d: the same seed gives edge %v, then %v", c.n, c.d, e, again.OutEdges(u)[i])
				}
			}
			if len(seen) != want {
				t.Fatalf("n=%d d=%d: vertex %d has %d out-edges, want %d", c.n, c.d, u, len(seen), want)
			}
		}
	}
	start := time.Now()
	g := RandomOutRegular(50_000, labels, 3, 7)
	if el := time.Since(start); el > time.Second || g.NumEdges() != 150_000 {
		t.Fatalf("a 50k × 3 build took %v for %d edges; want < 1s for 150000", el, g.NumEdges())
	}
}

func TestFigure4Shape(t *testing.T) {
	f := NewFigure4(3)
	g := f.G
	// The L-labeled walk exists: a^{2k} b^{2k} c^{2k} from X0 to Y2k.
	// Check the three self-intersection edges exist as described.
	if !g.HasEdge(f.Xmid, 'b', f.Ymid) {
		t.Error("middle b-edge x_k -> y_k missing")
	}
	// Count labels.
	counts := map[byte]int{}
	for _, e := range g.Edges() {
		counts[e.Label]++
	}
	// a-path and c-path have 2k edges each; the b-path runs
	// x_{2k} →^k x_k → y_k →^k y_0, i.e. 2k+1 edges.
	if counts['a'] != 6 || counts['c'] != 6 || counts['b'] != 7 {
		t.Errorf("label counts %v, want a=6 c=6 b=7 for k=3", counts)
	}
}

func TestVGraphEncoding(t *testing.T) {
	// Alternating a/b vertices: the db-encoding labels each edge by its
	// target's vertex label.
	vg := NewVGraph([]byte{'a', 'b', 'a'})
	vg.AddEdge(0, 1)
	vg.AddEdge(1, 2)
	db := vg.DBGraph()
	if !db.HasEdge(0, 'b', 1) || !db.HasEdge(1, 'a', 2) {
		t.Error("vl-graph encoding wrong")
	}
	// The paper's invariant: no vertex has two incoming labels.
	for v := 0; v < db.NumVertices(); v++ {
		labels := map[byte]bool{}
		for _, e := range db.InEdges(v) {
			labels[e.Label] = true
		}
		if len(labels) > 1 {
			t.Errorf("vertex %d has %d incoming labels", v, len(labels))
		}
	}
	w, err := vg.VWordOf([]int{0, 1, 2})
	if err != nil || w != "ba" {
		t.Errorf("VWordOf = %q %v", w, err)
	}
	if _, err := vg.VWordOf([]int{0, 2}); err == nil {
		t.Error("missing edge must error")
	}
	// The encoding is the vl-graph's own adjacency: an edge added after
	// DBGraph was taken is visible through it.
	db.Freeze()
	vg.AddEdge(2, 0)
	if !db.HasEdge(2, 'a', 0) || db.NumEdges() != 3 || vg.NumEdges() != 3 {
		t.Error("edge added after DBGraph() not visible through it")
	}
	if w, err := vg.VWordOf([]int{1, 2, 0}); err != nil || w != "aa" {
		t.Errorf("VWordOf after AddEdge = %q %v", w, err)
	}
}

func TestEVGraphEncoding(t *testing.T) {
	ev := NewEVGraph([]byte{'a', 'b'})
	ev.AddEdge(0, 'x', 1)
	db := ev.DBGraph()
	want := PairLabel('b', 'x')
	if !db.HasEdge(0, want, 1) {
		t.Error("evl-graph encoding wrong")
	}
	ev.AddEdge(1, 'y', 0)
	if !db.HasEdge(1, PairLabel('a', 'y'), 0) || db.NumEdges() != 2 {
		t.Error("edge added after DBGraph() not visible through it")
	}
	if PairLabel('a', 'x') == PairLabel('b', 'x') {
		t.Error("pairing must separate vertex labels")
	}
	if PairLabel('a', 'x') == PairLabel('a', 'y') {
		t.Error("pairing must separate edge labels")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := Random(10, []byte{'a', 'b', 'c'}, 0.3, 77)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed size")
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.From, e.Label, e.To) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

// readTextBad are inputs ReadText must reject, each with an error. The
// parser before the byte scanner panicked on "n" and "n -1", read
// "1x" and "+1" as 1, and took counts past the CSR's int32 ids.
var readTextBad = []string{
	"",
	"e 0 a 1",
	"n 2\ne 0 ab 1",
	"n 2\ne 0 a 5",
	"n 2\nz 1",
	"n x",
	"n 2\nn 3",
	"n\n",
	"n -1\n",
	"n +2\n",
	"n 2 3\n",
	"n 2147483648\n",
	"n 99999999999999999999\n",
	"n 2\ne 0 a 1x\n",
	"n 2\ne +1 a 0\n",
	"n 2\ne -1 a 0\n",
	"n 2\ne 0 a 0x1\n",
	"n 2\ne 0 a\n",
	"n 2\ne 0 a 1 1\n",
	"n 2\ne 2147483648 a 0\n",
}

func TestReadTextErrors(t *testing.T) {
	for _, in := range readTextBad {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		} else if !strings.HasPrefix(err.Error(), "graph: ") {
			t.Errorf("input %q: error %q does not name the package", in, err)
		}
	}
	if _, err := ReadText(strings.NewReader("n 2\n\ne 0 a 1x\n")); err == nil || err.Error() != "graph: line 3: bad target" {
		t.Errorf("a bad target on line 3: error %v", err)
	}
	// Comments, blanks, CRLF line ends and runs of spaces or tabs are fine.
	for _, in := range []string{
		"# c\n\nn 2\ne 0 a 1\n",
		"n 2\r\ne 0 a 1\r\n",
		"  n\t 2\n\t e  0 \t a\t1  \n  # trailing comment",
		"n 2\ne 0 a 1",
		"n 002\ne 00 a 01\n",
	} {
		g, err := ReadText(strings.NewReader(in))
		if err != nil || g.NumVertices() != 2 || g.NumEdges() != 1 || !g.HasEdge(0, 'a', 1) {
			t.Errorf("input %q: %v %v", in, g, err)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 'a', 1)
	p := PathAt(0).Append('a', 1)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "color=red") || !strings.Contains(out, "digraph") {
		t.Errorf("DOT output missing pieces: %s", out)
	}
}

func TestLoopTrapShape(t *testing.T) {
	tr := NewLoopTrap(3)
	// The bad route's self loop must exist.
	found := false
	for _, e := range tr.G.Edges() {
		if e.From == e.To && e.Label == 'b' {
			found = true
		}
	}
	if !found {
		t.Error("LoopTrap must contain a b self-loop")
	}
}

func TestEpochAdvancesOnMutation(t *testing.T) {
	g := New(2)
	e0 := g.Epoch()
	g.AddEdge(0, 'a', 1)
	if g.Epoch() == e0 {
		t.Fatal("AddEdge must advance the epoch")
	}
	e1 := g.Epoch()
	g.AddEdge(0, 'a', 1) // exact duplicate: set semantics, no mutation
	if g.Epoch() != e1 {
		t.Fatal("duplicate AddEdge must not advance the epoch")
	}
	g.AddVertex()
	if g.Epoch() == e1 {
		t.Fatal("AddVertex must advance the epoch")
	}
	e2 := g.Epoch()
	// Queries and freezing never advance the epoch.
	g.Freeze()
	g.IsAcyclic()
	g.Alphabet()
	if g.Epoch() != e2 {
		t.Fatal("read-side calls must not advance the epoch")
	}
	if e2 <= e0 {
		t.Fatalf("epoch must be monotonic: %d then %d", e0, e2)
	}
}

// TestSnapshotConsistent pins PinView's contract: the view is stamped
// with the graph's epoch, an unchanged graph reuses it, and a mutation
// re-pins it under the new epoch. (That no pin computes acyclicity is
// guarded in rspq, TestNoQueryComputesAcyclicity, by the bytes a
// TopoOrder would allocate.)
func TestSnapshotConsistent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 0) // cyclic
	vw := g.PinView()
	if vw.NumEdges() != 2 || vw.Epoch() != g.Epoch() {
		t.Fatalf("view = (%d edges, epoch %d); graph epoch %d", vw.NumEdges(), vw.Epoch(), g.Epoch())
	}
	if g.PinView() != vw {
		t.Fatal("a pin without mutation must reuse the cached view")
	}
	epoch := vw.Epoch()
	g.AddEdge(1, 'b', 2)
	g.RemoveEdge(1, 'a', 0) // breaks the cycle
	v3 := g.PinView()
	if v3 == vw || v3.Epoch() == epoch || v3.Epoch() != g.Epoch() || vw.Epoch() != epoch {
		t.Fatal("a pin after mutation must re-pin under the new epoch, leaving the old view at its own")
	}
	if v3.NumEdges() != 2 || !v3.HasEdge(1, 'b', 2) || v3.HasEdge(1, 'a', 0) {
		t.Fatalf("new view has %d edges; want {0-a->1, 1-b->2}", v3.NumEdges())
	}
	if !g.IsAcyclic() {
		t.Fatal("graph is acyclic after the removal")
	}
}
