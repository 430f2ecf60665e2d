package rspq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// The package's one differential harness: the tier list (tiers), the
// pair builder (pairsFor), the reference (oracleAnswers and
// textbookSweep over the edge lists the test keeps, edgeLedger, with
// BaselineShortest for lengths), the view axis (frozen, overlay,
// extended, grown, removals) and the one surface checker
// (checkSurfaces). The properties say only what they check.

// hShape is a graph family: gen draws a graph of n vertices (about n on
// a layered DAG).
type hShape struct {
	name string
	n    int
	gen  func(n int, seed int64) *graph.Graph
}

// regular is the family of n-vertex graphs with out-degree 3 over {a, b, c}.
func regular(n int) hShape {
	return hShape{"regular", n, func(n int, seed int64) *graph.Graph {
		return graph.RandomRegular(n, []byte("abc"), 3, seed)
	}}
}

// sparse is the family of n-vertex random graphs of the given expected
// out-degree.
func sparse(n int, degree float64, labels string) hShape {
	return hShape{"sparse", n, func(n int, seed int64) *graph.Graph {
		return graph.Random(n, []byte(labels), degree/float64(n-1), seed)
	}}
}

// layered is the family of layered DAGs of the given width and
// out-degree, labels drawn from labels in that order.
func layered(name string, n, width, degree int, labels string) hShape {
	return hShape{name, n, func(n int, seed int64) *graph.Graph {
		return graph.LayeredDAG(n/width, width, degree, []byte(labels), seed)
	}}
}

// hTier is one row of the tier list: a language the dispatcher sends to
// the tier, the tier's other languages (more) for the properties that
// sweep languages, and the graph families it runs on — seed s draws from
// shapes[s mod len(shapes)]. On a DAG row (dagWidth > 0, the width of
// its narrowest layer) every write keeps edges pointing forward, so the
// input stays acyclic. A kernel row only widens the sweep's lanes: the
// answer properties skip it.
type hTier struct {
	name     string
	pattern  string
	more     []string
	algo     Algorithm
	dagWidth int
	kernel   bool
	shapes   []hShape
}

var tiers = []hTier{
	{name: "finite", pattern: "ab|ba|aab", more: []string{"()", "ab|()", "ab|ba", "a?b?c?"}, algo: AlgoFinite,
		shapes: []hShape{sparse(40, 3.1, "ab")}},
	{name: "subword", pattern: "a*c*", algo: AlgoSubword,
		more:   []string{"a*b?c*", "a*", "(a|b)*", "a*(b|())", "(ab)?[ab]*"},
		shapes: []hShape{regular(60), sparse(50, 3, "abc")}},
	{name: "summary", pattern: "a*(bb+|())c*", algo: AlgoSummary, // Example 1; more[1] is Example 2
		more:   []string{"a(c{2,}|())a*", "a(c{2,}|())(a|b)*(ac)?a*", "[ab]{2,}", "a{2,4}b*", "ab|b*a", "[abc]*(de)?f*"},
		shapes: []hShape{regular(40)}},
	{name: "summary-adjacent-gaps", pattern: "a+c?b+", algo: AlgoSummary, // [A]*[B]* terms, an optional word between
		more: []string{"a+b+", "(a|b)+c+", "a+(b|c)+a", "a+b*c+"}, shapes: []hShape{regular(40)}},
	{name: "dag", pattern: "(a|b)*a(a|b)*", more: []string{"a*ba*"}, algo: AlgoBaseline, dagWidth: 6,
		shapes: []hShape{layered("layered", 48, 6, 3, "ab"), layered("layered-ba", 48, 8, 2, "ba")}},
	{name: "baseline", pattern: "a*bba*", algo: AlgoBaseline,
		more:   []string{"(aa)*", "(ab)*", "a*b(cc)*a", "(a|b)*b(a|b)*"},
		shapes: []hShape{sparse(40, 2, "ab")}},
	{name: "wide", pattern: "(a*b*){33}", algo: AlgoSubword, shapes: []hShape{regular(40), sparse(40, 1.5, "abc")}},
	{name: "wide-3", pattern: "(a*b*){65}", algo: AlgoSubword, kernel: true, shapes: []hShape{sparse(26, 3.5, "abc")}},
	{name: "wide-cross", pattern: "(a{65})*", algo: AlgoBaseline, kernel: true, shapes: []hShape{sparse(26, 3.5, "abc")}},
}

// tier returns the row of the tier list named name.
func tier(name string) *hTier {
	for i := range tiers {
		if tiers[i].name == name {
			return &tiers[i]
		}
	}
	panic("no tier row " + name)
}

// answerRows are the rows the answer properties run: every row but the
// kernel ones.
func answerRows() []*hTier {
	var rows []*hTier
	for i := range tiers {
		if !tiers[i].kernel {
			rows = append(rows, &tiers[i])
		}
	}
	return rows
}

// tierRows are one answer row per tier the dispatcher picks.
func tierRows() []*hTier {
	return []*hTier{tier("finite"), tier("subword"), tier("summary"), tier("baseline")}
}

// rowsOn are the answer rows of the given tiers.
func rowsOn(algos ...Algorithm) []*hTier {
	return slices.DeleteFunc(answerRows(), func(row *hTier) bool { return !slices.Contains(algos, row.algo) })
}

// hLang is one language of a row.
type hLang struct {
	row     *hTier
	pattern string
}

// languagesOf lists every language of rows, each row's own first.
func languagesOf(rows ...*hTier) []hLang {
	var langs []hLang
	for _, row := range rows {
		for _, pattern := range append([]string{row.pattern}, row.more...) {
			langs = append(langs, hLang{row, pattern})
		}
	}
	return langs
}

// patternsOf lists each row's own language.
func patternsOf(rows ...*hTier) []hLang {
	var langs []hLang
	for _, row := range rows {
		langs = append(langs, hLang{row, row.pattern})
	}
	return langs
}

// family returns the row's graph family named name.
func (row *hTier) family(name string) hShape {
	for _, sh := range row.shapes {
		if sh.name == name {
			return sh
		}
	}
	panic("no graph family " + name + " in tier row " + row.name)
}

// graph draws seed's graph of the row, of n vertices (the family's own
// size when n is 0).
func (row *hTier) graph(seed int64, n int) *graph.Graph {
	sh := row.shapes[int(seed)%len(row.shapes)]
	if n == 0 {
		n = sh.n
	}
	return sh.gen(n, seed)
}

// hCase is one cell of the matrix: a language of a row on one graph,
// the ledger the reference reads, and the view the graph was moved to
// last. Writes touch only the first n0 vertices, so isolated stays so.
type hCase struct {
	row      *hTier
	pattern  string
	seed     int64
	s        *Solver
	g        *graph.Graph
	l        *edgeLedger
	labels   []byte // the frozen alphabet writes draw from
	n0       int
	isolated int
	added    []int // the vertices the grown view added
	rng      *rand.Rand
	kept     *Engine // one engine across the case's views: its caches must follow the epoch
	view     string
}

// compiled memoizes the solvers of the harness's languages: compiling
// the widest ones takes seconds, and a Solver serves any graph.
var compiled = map[string]*Solver{}

func compiledSolver(t *testing.T, pattern string) *Solver {
	t.Helper()
	if s, ok := compiled[pattern]; ok {
		return s
	}
	s := mustSolver(t, pattern)
	compiled[pattern] = s
	return s
}

// newCase readies pattern on g for the row: it adds the isolated vertex,
// starts the ledger and freezes g, so the case starts on the frozen view.
func newCase(t *testing.T, row *hTier, pattern string, g *graph.Graph, seed int64) *hCase {
	t.Helper()
	c := &hCase{row: row, pattern: pattern, seed: seed, s: compiledSolver(t, pattern), g: g, n0: g.NumVertices(),
		rng: rand.New(rand.NewSource(seed*7919 + 17)), view: "frozen"}
	c.isolated = g.AddVertex()
	c.l = newLedger(g)
	c.labels = g.Freeze().Labels()
	c.kept = NewEngine(c.s, g, EngineConfig{})
	return c
}

func (c *hCase) String() string {
	return fmt.Sprintf("%q seed=%d view=%s (row %s)", c.pattern, c.seed, c.view, c.row.name)
}

// pairs is the pair builder on the case's graph; stride 0 is 1+n/12.
func (c *hCase) pairs(stride int) []Pair {
	n := c.g.NumVertices()
	if stride == 0 {
		stride = 1 + n/12
	}
	return pairsFor(n, c.isolated, stride, c.added, c.rng)
}

// pairsFor is the pair builder: every stride-th x against every
// stride-th y of n vertices (1 is every pair), x == y on a sample, the
// isolated vertex in both roles and against itself, the first pair
// again, each added vertex in both roles and the first against the
// last, and ids out of range.
func pairsFor(n, isolated, stride int, added []int, rng *rand.Rand) []Pair {
	var pairs []Pair
	for y := 0; y < n; y += stride {
		for x := 0; x < n; x += stride {
			pairs = append(pairs, Pair{X: x, Y: y})
		}
	}
	for v := 0; v < n; v += 1 + n/6 {
		pairs = append(pairs, Pair{X: v, Y: v})
	}
	pairs = append(pairs, Pair{X: isolated, Y: rng.Intn(n)}, Pair{X: rng.Intn(n), Y: isolated},
		Pair{X: isolated, Y: isolated}, pairs[0])
	for _, w := range added {
		pairs = append(pairs, Pair{X: rng.Intn(n), Y: w}, Pair{X: w, Y: rng.Intn(n)})
	}
	if len(added) > 0 {
		pairs = append(pairs, Pair{X: added[0], Y: added[len(added)-1]})
	}
	return append(pairs, outOfRange(n)...)
}

// outOfRange lists ids outside [0, n) in every role.
func outOfRange(n int) []Pair {
	return []Pair{{-1, 0}, {0, -1}, {-1, -1}, {n, 0}, {0, n}, {n + 5, n + 5}, {-1, n}, {n, -1}}
}

// flip flips count random edges among the first n0 vertices, labelled
// from the frozen alphabet; on a DAG row every edge points forward.
func (c *hCase) flip(count int) {
	for i := 0; i < count; i++ {
		u, v := c.rng.Intn(c.n0), c.rng.Intn(c.n0)
		if c.row.dagWidth > 0 && u >= v {
			if u, v = v, u+1; v >= c.n0 {
				continue
			}
		}
		c.l.flip(u, c.labels[c.rng.Intn(len(c.labels))], v)
	}
}

// repin re-reaches the graph's edge set through three write→pin steps —
// one edge taken out and pinned away, then a second, then both put back
// — and returns the view pinned last, which extends its predecessors'
// overlays whatever built the one before.
func (c *hCase) repin(t *testing.T) *graph.View {
	t.Helper()
	var es []graph.Edge
	for tries := 0; len(es) < 2 && tries < 1000; tries++ {
		if out := c.l.out[c.rng.Intn(c.n0)]; len(out) > 0 {
			if e := out[c.rng.Intn(len(out))]; len(es) == 0 || es[0] != e {
				es = append(es, e)
			}
		}
	}
	if len(es) < 2 {
		t.Fatalf("%s: the graph has no two edges to take out and put back", c)
	}
	for _, e := range es {
		c.l.remove(e.From, e.Label, e.To)
		c.g.PinView()
	}
	for _, e := range es {
		c.l.add(e.From, e.Label, e.To)
	}
	return c.g.PinView()
}

// hView moves a case's graph on to a view kind and asserts that the pin
// is of that kind. A chain of views runs in order on one case.
type hView struct {
	name string
	to   func(t *testing.T, c *hCase)
}

// expectOverlay fails unless the next pin's overlay flag is want.
func (c *hCase) expectOverlay(t *testing.T, want bool) {
	t.Helper()
	if vw := c.g.PinView(); vw.Overlay() != want {
		t.Fatalf("%s: the pin's overlay flag is %v", c, vw.Overlay())
	}
}

// frozen is the snapshot passed through.
var frozen = hView{"frozen", func(t *testing.T, c *hCase) { c.expectOverlay(t, false) }}

// overlay flips count edges: the pin overlays the delta on the base.
func overlay(count int) hView {
	return hView{fmt.Sprintf("overlay-%d", count), func(t *testing.T, c *hCase) {
		c.flip(count)
		c.expectOverlay(t, true)
	}}
}

// extended flips edges in three pinned steps, then repins: the pin
// extends the overlays of the pins before it, as serving reaches one.
var extended = hView{"extended", func(t *testing.T, c *hCase) {
	for step := 0; step < 3; step++ {
		c.flip(2)
		c.g.PinView()
	}
	if !c.repin(t).Overlay() {
		t.Fatalf("%s: the pin is not an overlay", c)
	}
}}

// grown appends vertices past the base after a few flips, each wired to
// the old vertices in both directions and to the one added before it (on
// a DAG row between the first layer and the last, the chain running
// forward), then one more that stays isolated, and repins: the pin's
// rows reach past the base's.
var grown = hView{"grown", func(t *testing.T, c *hCase) {
	c.flip(4)
	label := func() byte { return c.labels[c.rng.Intn(len(c.labels))] }
	for i := 0; i < 5; i++ {
		w := c.l.addVertex()
		if width := c.row.dagWidth; width > 0 {
			c.l.add(c.rng.Intn(width), label(), w)
			c.l.add(w, label(), c.n0-1-c.rng.Intn(width))
		} else {
			c.l.add(c.rng.Intn(c.n0), label(), w)
			c.l.add(w, label(), c.rng.Intn(c.n0))
			c.l.add(c.rng.Intn(c.n0), label(), w)
		}
		if len(c.added) > 0 {
			c.l.add(c.added[len(c.added)-1], label(), w)
		}
		c.added = append(c.added, w)
	}
	c.isolated = c.l.addVertex()
	if vw := c.repin(t); !vw.Overlay() || vw.NumVertices() <= vw.Base().NumVertices() {
		t.Fatalf("%s: want an overlay over a grown vertex set (overlay=%v, n=%d, base n=%d)",
			c, vw.Overlay(), vw.NumVertices(), vw.Base().NumVertices())
	}
}}

// removals removes count base edges and adds none: the overlay is
// tombstones alone.
func removals(count int) hView {
	return hView{fmt.Sprintf("removals-%d", count), func(t *testing.T, c *hCase) {
		removed := 0
		for _, e := range c.g.Edges() {
			if removed < count && c.rng.Intn(4) == 0 {
				c.l.remove(e.From, e.Label, e.To)
				removed++
			}
		}
		vw := c.g.PinView()
		if adds, removes := vw.PendingDelta(); !vw.Overlay() || removed == 0 || adds != 0 || removes != removed {
			t.Fatalf("%s: overlay=%v with delta (%d, %d); want (0, %d)", c, vw.Overlay(), adds, removes, removed)
		}
	}}
}

// move takes c on to view v.
func (c *hCase) move(t *testing.T, v hView) {
	t.Helper()
	c.view = v.name
	v.to(t, c)
}

// runMatrix runs prop on every row as a subtest named after it: for each
// seed and each chain of views, on a fresh case of the row's language,
// after every view of the chain in turn.
func runMatrix(t *testing.T, rows []*hTier, seeds []int64, chains [][]hView, prop func(t *testing.T, c *hCase)) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, seed := range seeds {
				for _, chain := range chains {
					c := newCase(t, row, row.pattern, row.graph(seed, 0), seed)
					for _, v := range chain {
						c.move(t, v)
						prop(t, c)
					}
				}
			}
		})
	}
}

// edgeLedger is a graph with the adjacency lists a test keeps beside it:
// every write goes through the ledger to both, so the references read
// the test's own lists and never the graph's, which after a write to the
// frozen graph are rebuilt from the base and the delta under test.
type edgeLedger struct {
	g       *graph.Graph
	out, in [][]graph.Edge
}

// newLedger seeds the lists from g's edges as built, before any write
// to the frozen graph.
func newLedger(g *graph.Graph) *edgeLedger {
	l := &edgeLedger{g: g, out: make([][]graph.Edge, g.NumVertices()), in: make([][]graph.Edge, g.NumVertices())}
	for _, e := range g.Edges() {
		l.out[e.From] = append(l.out[e.From], e)
		l.in[e.To] = append(l.in[e.To], e)
	}
	return l
}

func (l *edgeLedger) has(e graph.Edge) bool { return slices.Contains(l.out[e.From], e) }

func (l *edgeLedger) add(from int, label byte, to int) {
	l.g.AddEdge(from, label, to)
	if e := (graph.Edge{From: from, Label: label, To: to}); !l.has(e) {
		l.out[from] = append(l.out[from], e)
		l.in[to] = append(l.in[to], e)
	}
}

func (l *edgeLedger) remove(from int, label byte, to int) bool {
	e := graph.Edge{From: from, Label: label, To: to}
	had := l.has(e)
	if had {
		l.out[from] = slices.DeleteFunc(l.out[from], func(x graph.Edge) bool { return x == e })
		l.in[to] = slices.DeleteFunc(l.in[to], func(x graph.Edge) bool { return x == e })
	}
	if l.g.RemoveEdge(from, label, to) != had {
		panic(fmt.Sprintf("RemoveEdge%v disagrees with the ledger, which has it = %v", e, had))
	}
	return had
}

// flip removes the edge when present and adds it otherwise.
func (l *edgeLedger) flip(from int, label byte, to int) {
	if !l.remove(from, label, to) {
		l.add(from, label, to)
	}
}

func (l *edgeLedger) addVertex() int {
	l.out, l.in = append(l.out, nil), append(l.in, nil)
	return l.g.AddVertex()
}

// rebuilt is the ledger's edge set in a fresh graph that never saw the
// delta machinery, so its answers come from a cold full freeze.
func (l *edgeLedger) rebuilt() *graph.Graph {
	o := graph.New(len(l.out))
	for _, row := range l.out {
		for _, e := range row {
			o.AddEdge(e.From, e.Label, e.To)
		}
	}
	return o
}

// oracleAuto is the automaton the textbook sweep runs over, as a bare
// list of transitions by target state, and its accepting states.
type oracleAuto struct {
	m      int
	into   [][]oracleArc // into[q]: the transitions that enter q
	accept []int
}

// oracleArc is a transition from -label-> (the state it is listed under).
type oracleArc struct {
	from  int
	label byte
}

func newOracleAuto(m int) *oracleAuto { return &oracleAuto{m: m, into: make([][]oracleArc, m)} }

func (o *oracleAuto) arc(from int, label byte, to int) {
	o.into[to] = append(o.into[to], oracleArc{from, label})
}

// dfaOracle lists d's transitions and accepting states.
func dfaOracle(d *automaton.DFA) *oracleAuto {
	o := newOracleAuto(d.NumStates)
	for q := 0; q < d.NumStates; q++ {
		if d.Accept[q] {
			o.accept = append(o.accept, q)
		}
		for i, label := range d.Alphabet {
			o.arc(q, label, d.StepIndex(q, i))
		}
	}
	return o
}

// textbookSweep returns, for every product id v·m + q, the length of a
// shortest walk from v to y whose label takes state q to an accepting
// state, -1 where there is none: the closure is dist >= 0. It is a plain
// queue BFS over the ledger's in-lists, sharing no code with the sweep.
func textbookSweep(l *edgeLedger, o *oracleAuto, y int) []int32 {
	m := o.m
	dist := make([]int32, len(l.in)*m)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for _, q := range o.accept {
		if id := y*m + q; dist[id] < 0 {
			dist[id] = 0
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range l.in[id/m] {
			for _, arc := range o.into[id%m] {
				if pid := e.From*m + arc.from; arc.label == e.Label && dist[pid] < 0 {
					dist[pid] = dist[id] + 1
					queue = append(queue, pid)
				}
			}
		}
	}
	return dist
}

// oracleAnswers computes, without any engine code, whether each pair has
// a simple L-path — a depth-first search over the simple paths of the
// ledger's graph that tracks the DFA state, pruned by the textbook
// sweep's closure toward the pair's target — and the length of its
// shortest L-walk, the sweep's distance (-1 for none). Out-of-range
// pairs have neither.
func oracleAnswers(d *automaton.DFA, l *edgeLedger, pairs []Pair) (found []bool, walk []int32) {
	o := dfaOracle(d)
	m, n := d.NumStates, len(l.out)
	closure := map[int][]int32{}
	found, walk = make([]bool, len(pairs)), make([]int32, len(pairs))
	for i, pq := range pairs {
		walk[i] = -1
		if !validPair(n, pq.X, pq.Y) {
			continue
		}
		co, ok := closure[pq.Y]
		if !ok {
			co = textbookSweep(l, o, pq.Y)
			closure[pq.Y] = co
		}
		used := make([]bool, n)
		var dfs func(v, q int) bool
		dfs = func(v, q int) bool {
			if v == pq.Y && d.Accept[q] {
				return true
			}
			used[v] = true
			defer func() { used[v] = false }()
			for _, e := range l.out[v] {
				if t, ok := d.StepOK(q, e.Label); ok && !used[e.To] && co[e.To*m+t] >= 0 && dfs(e.To, t) {
					return true
				}
			}
			return false
		}
		walk[i] = co[pq.X*m+d.Start]
		found[i] = walk[i] >= 0 && dfs(pq.X, d.Start)
	}
	return found, walk
}

// reference is the ground truth for a case's pairs.
type reference struct {
	pairs  []Pair
	found  []bool   // a simple L-path exists (oracleAnswers)
	walk   []int32  // the shortest L-walk's length (the textbook sweep's), -1 for none
	solve  []Result // Solver.Solve's answers, whose witnesses the Solve surfaces return (checked as one)
	length []int    // the shortest simple L-path's, -1 for none: lengths fills it
	cold   *graph.Graph
}

// reference computes the reference for pairs on the case's current
// edges.
func (c *hCase) reference(t *testing.T, pairs []Pair) *reference {
	t.Helper()
	r := &reference{pairs: pairs, cold: c.l.rebuilt()}
	r.found, r.walk = oracleAnswers(c.s.Min, c.l, pairs)
	r.solve = each(pairs, func(x, y int) Result { return c.s.Solve(c.g, x, y) })
	return r
}

// lengths are BaselineShortest's path lengths on the ledger rebuilt
// cold, computed on first use; BaselineShortest must find a path
// exactly where the oracle does, no shorter than the shortest walk.
func (r *reference) lengths(t *testing.T, c *hCase) []int {
	t.Helper()
	if r.length != nil {
		return r.length
	}
	r.length = make([]int, len(r.pairs))
	for i, pq := range r.pairs {
		r.length[i] = -1
		if res := BaselineShortest(r.cold, c.s.Min, pq.X, pq.Y, nil); res.Found {
			r.length[i] = res.Path.Len()
		}
		if r.found[i] != (r.length[i] >= 0) || r.found[i] && int(r.walk[i]) > r.length[i] {
			t.Fatalf("%s (%d,%d): the oracle says %v (shortest walk %d), BaselineShortest on the rebuilt graph %d",
				c, pq.X, pq.Y, r.found[i], r.walk[i], r.length[i])
		}
	}
	return r.length
}

// at is the reference of pair i alone, for its Solve asks.
func (r *reference) at(i int) *reference {
	return &reference{pairs: r.pairs[i : i+1], found: r.found[i : i+1], walk: r.walk[i : i+1], solve: r.solve[i : i+1]}
}

// How a surface's answers are held against the reference.
const (
	askExists   = iota // Found only
	askWitness         // Found, and the witness is a simple L-path of the graph
	askSame            // askWitness, and the witness is Solver.Solve's
	askShortest        // askWitness, and as long as BaselineShortest's
	askWalk            // Found is "an L-walk exists", and a walk returned is as long as the textbook sweep's
)

// check holds one surface's answers to r's pairs against r.
func (c *hCase) check(t *testing.T, r *reference, who string, got []Result, how int) {
	t.Helper()
	if len(got) != len(r.pairs) {
		t.Fatalf("%s %s: %d answers for %d pairs", c, who, len(got), len(r.pairs))
	}
	d := c.s.Min
	for i, pq := range r.pairs {
		res, x, y := got[i], pq.X, pq.Y
		want := r.found[i]
		if how == askWalk {
			want = r.walk[i] >= 0
		}
		switch {
		case res.Found != want:
			t.Fatalf("%s %s(%d,%d): found=%v, the oracle says %v", c, who, x, y, res.Found, want)
		case how == askExists:
		case how == askWalk:
			if res.Path != nil {
				checkWalkBitValid(t, d, c.g, res.Path, x, d.Start, y, r.walk[i])
			}
		case !VerifyWitness(res, c.g, d, x, y):
			t.Fatalf("%s %s(%d,%d): %v is not a simple L-path of the graph", c, who, x, y, res.Path)
		case how == askShortest && res.Found && res.Path.Len() != r.lengths(t, c)[i]:
			t.Fatalf("%s %s(%d,%d): length %d, BaselineShortest's %d", c, who, x, y, res.Path.Len(), r.length[i])
		case how == askSame && res.Found && !samePath(res.Path, r.solve[i].Path):
			t.Fatalf("%s %s(%d,%d) = %v; Solver.Solve %v", c, who, x, y, res.Path, r.solve[i].Path)
		}
	}
}

// samePath reports whether two walks (nil for none) take the same
// vertices and labels.
func samePath(a, b *graph.Path) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Vertices, b.Vertices) && slices.Equal(a.Labels, b.Labels)
}

// each asks f for every pair.
func each(pairs []Pair, f func(x, y int) Result) []Result {
	out := make([]Result, len(pairs))
	for i, pq := range pairs {
		out[i] = f(pq.X, pq.Y)
	}
	return out
}

// foundBits are existence answers as results.
func foundBits(found []bool) []Result {
	out := make([]Result, len(found))
	for i, f := range found {
		out[i].Found = f
	}
	return out
}

// soundAlgos lists the forced tiers whose answer must be exact for s's
// language on g: not Naive (incomplete by design) nor AlgoWalk (another
// problem), and the others only where the dispatcher could route to
// them.
func soundAlgos(s *Solver, g *graph.Graph) []Algorithm {
	algos := []Algorithm{AlgoAuto, AlgoBaseline}
	if s.Classification.Finite {
		algos = append(algos, AlgoFinite)
	}
	if s.SubwordClosed {
		algos = append(algos, AlgoSubword)
	}
	if summarizable(s) {
		algos = append(algos, AlgoSummary)
	}
	if g.IsAcyclic() {
		algos = append(algos, AlgoDAG)
	}
	return algos
}

// summarizable reports whether the summary search may be forced on s's
// language: a tractable one with a Ψtr form of at most eight terms a
// sequence. Its skeletons multiply with the terms, so past that — the
// 66 gaps of (a*b*){33}, which the walk reduction answers — a forced
// search does not end in a test's time.
func summarizable(s *Solver) bool {
	if !s.Classification.Tractable || s.Expr == nil {
		return false
	}
	for _, seq := range s.Expr.Seqs {
		if len(seq.Terms) > 8 {
			return false
		}
	}
	return true
}

// surface is one way of asking a case's pairs: ask hands each answer
// set it gets to check, under a name and with how it is held.
type surface struct {
	name string
	ask  func(t *testing.T, c *hCase, pairs []Pair, check checker)
}

type checker func(who string, got []Result, how int)

// surfaces are every query surface.
var surfaces = []surface{
	{"Solver", func(t *testing.T, c *hCase, pairs []Pair, check checker) {
		s, g := c.s, c.g
		// The reference asked Solve first: this ask runs on warm scratch.
		check("Solve", each(pairs, func(x, y int) Result { return s.Solve(g, x, y) }), askSame)
		check("Shortest", each(pairs, func(x, y int) Result { return s.Shortest(g, x, y) }), askShortest)
		check("ShortestWalk", each(pairs, func(x, y int) Result { return pathResult(ShortestWalk(g, s.Min, x, y)) }), askWalk)
		check("ExistsWalk", each(pairs, func(x, y int) Result { return Result{Found: ExistsWalk(g, s.Min, x, y)} }), askWalk)
	}},
	{"SolveWith", func(t *testing.T, c *hCase, pairs []Pair, check checker) {
		for _, algo := range soundAlgos(c.s, c.g) {
			check(algo.String(), each(pairs, func(x, y int) Result { return c.s.SolveWith(c.g, x, y, algo) }), askWitness)
		}
	}},
	{"tiers", func(t *testing.T, c *hCase, pairs []Pair, check checker) {
		s, g, d := c.s, c.g, c.s.Min
		check("Baseline", each(pairs, func(x, y int) Result { return Baseline(g, d, x, y, nil) }), askWitness)
		check("BaselineShortest", each(pairs, func(x, y int) Result { return BaselineShortest(g, d, x, y, nil) }), askShortest)
		if s.Classification.Finite {
			check("Finite", each(pairs, func(x, y int) Result { return Finite(g, d, x, y) }), askShortest)
		}
		if s.SubwordClosed {
			check("Subword", each(pairs, func(x, y int) Result { return Subword(g, d, x, y) }), askShortest)
		}
		if summarizable(s) {
			check("SolvePsitr", each(pairs, func(x, y int) Result { return SolvePsitr(g, s.Expr, x, y, false) }), askWitness)
			check("SolvePsitr shortest", each(pairs, func(x, y int) Result { return SolvePsitr(g, s.Expr, x, y, true) }), askShortest)
		}
		if g.IsAcyclic() {
			check("DAG", each(pairs, func(x, y int) Result {
				res, ok := DAG(g, d, x, y)
				if !ok {
					t.Fatalf("%s: DAG rejects an acyclic graph", c)
				}
				return res
			}), askWitness)
		}
	}},
	{"BatchSolver", func(t *testing.T, c *hCase, pairs []Pair, check checker) {
		bs := NewBatchSolver(c.s, c.g)
		check("Solve", bs.Solve(pairs), askSame)
		check("SolveExists", foundBits(bs.SolveExists(pairs)), askExists)
		bs.SetWorkers(1)
		check("Solve (one worker)", bs.Solve(pairs), askSame)
		check("SolveExists (one worker)", foundBits(bs.SolveExists(pairs)), askExists)
	}},
	engineSurface("Engine/caches-on", EngineConfig{}),
	engineSurface("Engine/caches-off", EngineConfig{TableBytes: -1, ResultBytes: -1}),
	engineSurface("Engine/1-byte", EngineConfig{TableBytes: 1, ResultBytes: 1}),
	{"Engine/kept", func(t *testing.T, c *hCase, pairs []Pair, check checker) {
		for _, a := range engineAsks(pairs) {
			check(a.who, a.run(c.kept), a.how)
		}
	}},
}

// engineAsk is one of an Engine's four asks over a pair set.
type engineAsk struct {
	who string
	how int
	run func(e *Engine) []Result
}

func engineAsks(pairs []Pair) []engineAsk {
	return []engineAsk{
		{"Exists", askExists, func(e *Engine) []Result {
			return each(pairs, func(x, y int) Result { return Result{Found: e.Exists(x, y)} })
		}},
		{"Solve", askSame, func(e *Engine) []Result { return each(pairs, e.Solve) }},
		{"BatchSolveExists", askExists, func(e *Engine) []Result { return foundBits(e.BatchSolveExists(pairs)) }},
		{"BatchSolve", askSame, func(e *Engine) []Result { return e.BatchSolve(pairs) }},
	}
}

// engineSurface asks through two fresh engines of one cache
// configuration, the four asks in one order on the first and reversed on
// the second, so each runs both cold and behind whatever tables and
// results the others left. An engine whose budgets hold nothing must
// retain nothing, and one with both tiers disabled must never store.
func engineSurface(name string, cfg EngineConfig) surface {
	return surface{name, func(t *testing.T, c *hCase, pairs []Pair, check checker) {
		asks := engineAsks(pairs)
		for _, reverse := range []bool{false, true} {
			e := NewEngine(c.s, c.g, cfg)
			for i := range asks {
				a := asks[i]
				if reverse {
					a = asks[len(asks)-1-i]
				}
				check(a.who, a.run(e), a.how)
			}
			st := e.Stats()
			if cfg.TableBytes != 0 && (st.Tables.Entries != 0 || st.Results.Entries != 0) {
				t.Fatalf("%s %s must retain nothing: %+v / %+v", c, name, st.Tables, st.Results)
			}
			if cfg.TableBytes < 0 && (st.Tables.Puts != 0 || st.Results.Puts != 0) {
				t.Fatalf("%s %s: disabled tiers must never store: %+v / %+v", c, name, st.Tables, st.Results)
			}
			if cfg.TableBytes == 1 && (st.Tables.Puts != 0 || st.Results.Evictions == 0) {
				t.Fatalf("%s %s: a table was stored or a result kept: %+v / %+v", c, name, st.Tables, st.Results)
			}
		}
	}}
}

// checkGraphs holds the surfaces named in only on every stride-th pair
// of gen(seed), for seeds 0 to seeds-1, for each of langs.
func checkGraphs(t *testing.T, langs []hLang, seeds int64, stride int, gen func(seed int64) *graph.Graph, only ...string) {
	t.Helper()
	for _, l := range langs {
		for seed := range seeds {
			c := newCase(t, l.row, l.pattern, gen(seed), seed)
			checkSurfaces(t, c, c.pairs(stride), only...)
		}
	}
}

// viewSurfaces are the surfaces the view properties ask through: the
// Engine's cache configurations run on the frozen view
// (TestEvaluatorEquivalence) and the bare tier functions on an overlay
// and a grown one (TestBatchMatchesBaseline).
var viewSurfaces = []string{"Solver", "BatchSolver", "Engine/kept"}

// checkSurfaces asks pairs through every surface named in only (every
// surface when only is empty) and holds each answer against the
// reference: Found bits equal the oracle's, every witness is a simple
// L-path of the graph, the Solve surfaces return Solver.Solve's witness,
// shortest answers are as long as BaselineShortest's and walks as the
// textbook sweep's. It returns the reference.
func checkSurfaces(t *testing.T, c *hCase, pairs []Pair, only ...string) *reference {
	t.Helper()
	r := c.reference(t, pairs)
	for _, sf := range surfaces {
		if len(only) == 0 || slices.Contains(only, sf.name) {
			sf.ask(t, c, pairs, func(who string, got []Result, how int) { c.check(t, r, sf.name+"."+who, got, how) })
		}
	}
	return r
}

// checkWalkBitValid fails unless walk, read off a sweep from (x, q), is
// a walk of g to y whose word takes d from q into acceptance, exactly
// wantLen long: shortest, not merely valid.
func checkWalkBitValid(t *testing.T, d *automaton.DFA, g *graph.Graph, walk *graph.Path, x, q, y int, wantLen int32) {
	// No t.Helper: the sweep checks call this once per reached id.
	if walk == nil || walk.Source() != x || walk.Target() != y || int32(walk.Len()) != wantLen || !walk.ValidIn(g) {
		t.Fatalf("walk(%d,%d) = %v; want a walk of the graph of length %d", x, y, walk, wantLen)
	}
	if end, ok := d.Run(q, walk.Word()); !ok || !d.Accept[end] {
		t.Fatalf("walk(%d,%d): word %q does not take state %d into acceptance", x, y, walk.Word(), q)
	}
}

// checkSweepAgainstOracle compares what a sweep over m automaton states
// left in a — the closure in a.co, and after a sweep with links over
// product p (nil for a mark-only sweep) the distances — id for id
// against the oracle's. With links, the walk read off the distances from
// every reached (x, q) must be valid at the oracle's exact distance, and
// none may come back from an unreached one.
func checkSweepAgainstOracle(t *testing.T, g *graph.Graph, m int, a *arena, p *product, y int, want []int32, ctx string) {
	t.Helper()
	for id, d := range want {
		x, q := id/m, id%m
		if a.co.at(x, q) != (d >= 0) {
			t.Fatalf("%s: closure differs from the oracle at id %d (got %v, oracle distance %d)", ctx, id, a.co.at(x, q), d)
		}
		if p == nil {
			continue
		}
		if got := a.distAt(x, q); got != d {
			t.Fatalf("%s: dist[%d] = %d, oracle %d", ctx, id, got, d)
		}
		if walk := p.walkFrom(a, x, q); d >= 0 {
			checkWalkBitValid(t, p.d, g, walk, x, q, y, d)
		} else if walk != nil {
			t.Fatalf("%s: walk %v from unreachable id %d", ctx, walk, id)
		}
	}
}

// checkSweepContracts asserts, right after a sweep on a — run to the end
// or stopped with its sources answered — the contracts that let its
// consumers pay O(reached) and the next sweep start clean: the frontier
// lists are empty; the frontier words are zero, and so is every word past
// the visited ones; and a dirty list that is still valid names exactly
// the non-zero visited words, each once. It reports whether the list was
// valid.
func checkSweepContracts(t *testing.T, a *arena, ctx string) bool {
	t.Helper()
	if len(a.lv.fr) != 0 || len(a.lv.nx) != 0 {
		t.Fatalf("%s: the sweep ends with %d frontier and %d next-frontier entries", ctx, len(a.lv.fr), len(a.lv.nx))
	}
	vis := a.co.w
	if len(vis) != a.w64Hot || &vis[0] != &a.w64[0] {
		t.Fatalf("%s: a.co holds %d words, but the visited third is the first %d of w64", ctx, len(vis), a.w64Hot)
	}
	for i, w := range a.w64[a.w64Hot:cap(a.w64)] {
		if w != 0 {
			t.Fatalf("%s: packed word %d is %#x after the sweep; only the %d visited words may be non-zero",
				ctx, a.w64Hot+i, w, a.w64Hot)
		}
	}
	if !a.dirtyOK {
		return false
	}
	if len(a.dirty) > len(vis)/sparseFill {
		t.Fatalf("%s: a valid dirty list of %d words outgrew the sparse threshold %d", ctx, len(a.dirty), len(vis)/sparseFill)
	}
	listed := make(map[int32]bool, len(a.dirty))
	for _, kv := range a.dirty {
		if listed[kv] {
			t.Fatalf("%s: dirty list names word %d twice", ctx, kv)
		}
		listed[kv] = true
	}
	for kv, w := range vis {
		if (w != 0) != listed[int32(kv)] {
			t.Fatalf("%s: visited word %d is %#x but listed=%v", ctx, kv, w, listed[int32(kv)])
		}
	}
	return true
}

// checkKernel runs the sweep of c's DFA toward y on a, mark-only and
// then with links, and holds each against the textbook sweep
// (checkSweepAgainstOracle) and the sweep contracts. It reports whether
// the sweep with links kept its dirty list.
func checkKernel(t *testing.T, c *hCase, a *arena, y int) bool {
	t.Helper()
	want := textbookSweep(c.l, dfaOracle(c.s.Min), y)
	ctx := fmt.Sprintf("%s y=%d", c, y)
	p := makeProduct(c.g.PinView(), c.s.Min, a)
	p.sweep(y, a, false, nil)
	checkSweepAgainstOracle(t, c.g, p.m, a, nil, y, want, ctx+" (mark-only)")
	checkSweepContracts(t, a, ctx+" (mark-only)")
	p.distToGoal(y, a)
	checkSweepAgainstOracle(t, c.g, p.m, a, &p, y, want, ctx)
	return checkSweepContracts(t, a, ctx)
}
