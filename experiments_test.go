package trichotomy

// TestExperiments replays the reproduction's twelve experiments, one
// subtest per experiment. Each subtest asserts the claim of the paper it
// exercises and renders its tables; concatenated, the tables must equal
// the committed EXPERIMENTS.md. Regenerate that file with
//
//	go test -run TestExperiments -update .
//
// The tables keep only deterministic columns: answers, agreement flags,
// state counts and baseline search nodes. Timing is the repo
// benchmark's job (bench/).

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/psitr"
	"repro/internal/reduction"
	"repro/internal/rspq"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the experiment tables")

const experimentsFile = "EXPERIMENTS.md"

const experimentsPreamble = `# Experiments

Generated by ` + "`TestExperiments`" + ` (experiments_test.go); do not edit by
hand. Regenerate with ` + "`go test -run TestExperiments -update .`" + `

Each section replays one claim of the paper on fixed inputs and seeds.
The test fails when the claim does not hold, and when a table below
differs from what the code produces. Found witnesses are checked
against the definition: a simple path of the graph, from x to y, whose
word is in L.

Only deterministic columns are kept. Timing is the repo benchmark's job
(bench/), so the claims only a clock can show are not asserted: the
polynomial running times of E2, E9 and E12, and Theorem 7's 2^O(k) time
in E8. Growth is shown by counts instead: baseline search nodes (E3,
E6) and determinized states (E7).
`

func TestExperiments(t *testing.T) {
	experiments := []struct {
		id, title string
		run       func(t *testing.T, w io.Writer)
	}{
		{"E1", "Classification table (Theorems 1–2, 5)", e1},
		{"E2", "Tractable-solver agreement (Example 1 language)", e2},
		{"E3", "NP-hardness reduction (Lemma 5 / Figure 1)", e3},
		{"E4", "Summary walkthrough (Example 2 / Figure 3)", e4},
		{"E5", "Loop-elimination counterexample (Example 4 / Figure 4)", e5},
		{"E6", "Vertex-labeled split (§4.1)", e6},
		{"E7", "Recognition complexity (Theorem 3)", e7},
		{"E8", "Color-coding FPT (Theorem 7)", e8},
		{"E9", "DAG combined complexity (Theorem 8)", e9},
		{"E10", "NL-hardness reduction (Lemma 17)", e10},
		{"E11", "Ψtr fragment (Theorem 4)", e11},
		{"E12", "Subword-closed ablation (Mendelzon–Wood trC(0))", e12},
	}
	var doc bytes.Buffer
	doc.WriteString(experimentsPreamble)
	all := true
	for _, e := range experiments {
		ran := false
		t.Run(e.id, func(t *testing.T) {
			ran = true
			fmt.Fprintf(&doc, "\n## %s — %s\n\n", e.id, e.title)
			e.run(t, &doc)
		})
		all = all && ran
	}
	if !all || t.Failed() {
		return // a -run filter skipped an experiment, or a claim failed
	}
	if *update {
		if err := os.WriteFile(experimentsFile, doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(experimentsFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s differs from the generated tables from line %d on; regenerate with -update", experimentsFile, i+1)
	}
}

// header writes a markdown table header.
func header(w io.Writer, cols ...string) {
	fmt.Fprintf(w, "| %s |\n|%s\n", strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
}

// row writes one markdown table row, escaping the pipes of patterns so
// they do not split cells.
func row(w io.Writer, cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = strings.ReplaceAll(fmt.Sprint(c), "|", `\|`)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(s, " | "))
}

func mustMinDFA(t *testing.T, pattern string) *automaton.DFA {
	t.Helper()
	d, err := automaton.MinDFAFromPattern(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustSolver(t *testing.T, pattern string) *rspq.Solver {
	t.Helper()
	s, err := rspq.NewSolver(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// agree reports whether the results share one Found bit. A found
// witness that is not a simple L(d)-labeled x→y path of g fails the
// test.
func agree(t *testing.T, g *graph.Graph, d *automaton.DFA, x, y int, rs ...rspq.Result) bool {
	t.Helper()
	same := true
	for _, r := range rs {
		if !rspq.VerifyWitness(r, g, d, x, y) {
			t.Errorf("(%d, %d): invalid witness %v", x, y, r.Path)
		}
		same = same && r.Found == rs[0].Found
	}
	return same
}

// e1 classifies every catalog language on both graph models against the
// paper's verdicts (Theorems 2 and 5), and checks Theorem 4's side: a
// Ψtr form exists exactly for the tractable languages.
func e1(t *testing.T, w io.Writer) {
	header(w, "language", "pattern", "M", "edge-labeled", "vertex-labeled", "Ψtr form", "matches paper")
	for _, entry := range catalog.All() {
		d := mustMinDFA(t, entry.Pattern)
		edge := core.Classify(d, core.EdgeLabeled, nil)
		vlg := core.Classify(d, core.VertexLabeled, nil)
		form := "—"
		if r, err := automaton.ParseRegex(entry.Pattern); err == nil {
			if e, err := psitr.FromRegex(r); err == nil {
				form = e.String()
			}
		}
		match := edge.Class == entry.Class && vlg.Class == entry.VlgClass
		if !match {
			t.Errorf("%s: classified %v / %v, paper says %v / %v", entry.Name, edge.Class, vlg.Class, entry.Class, entry.VlgClass)
		}
		if (form != "—") != (edge.Class != core.NPComplete) {
			t.Errorf("%s: Ψtr form %q for a %v language", entry.Name, form, edge.Class)
		}
		row(w, entry.Name, "`"+entry.Pattern+"`", edge.M, edge.Class, vlg.Class, "`"+form+"`", match)
	}
}

// e2 checks the summary solver against the exact baseline on random
// regular graphs for the Example 1 language.
func e2(t *testing.T, w io.Writer) {
	s := mustSolver(t, "a*(bb+|())c*")
	header(w, "n", "edges", "agree")
	for _, n := range []int{50, 100, 200, 400, 800} {
		g := graph.RandomRegular(n, []byte("abc"), 3, int64(n))
		rng := rand.New(rand.NewSource(7))
		same := true
		for q := 0; q < 20; q++ {
			x, y := rng.Intn(n), rng.Intn(n)
			same = agree(t, g, s.Min, x, y, rspq.SolvePsitr(g, s.Expr, x, y, false), rspq.Baseline(g, s.Min, x, y, nil)) && same
		}
		if !same {
			t.Errorf("n=%d: summary and baseline disagree", n)
		}
		row(w, n, g.NumEdges(), same)
	}
}

// e3 validates the Lemma 5 reduction against a brute-force VDP solver
// and records the baseline's search work on the reduced instances.
func e3(t *testing.T, w io.Writer) {
	min := mustMinDFA(t, "a*b(cc)*d").Minimize()
	wit, err := core.ExtractHardnessWitness(min, nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "Property-(1) witness for `a*b(cc)*d`: %s\n\n", wit)
	header(w, "VDP vertices", "reduced vertices", "answers agree", "baseline nodes (hard L)")
	for _, n := range []int{4, 6, 8, 10, 12} {
		same, reduced := true, 0
		var nodes int64
		for seed := int64(0); seed < 5; seed++ {
			vdp := reduction.VDPInstance{G: graph.Random(n, []byte{'z'}, 0.3, seed*11+int64(n)), X1: 0, Y1: 1, X2: 2, Y2: 3}
			inst, err := reduction.FromVDP(vdp, wit)
			if err != nil {
				t.Fatal(err)
			}
			if seed == 0 {
				reduced = inst.G.NumVertices()
			}
			var stats rspq.BaselineStats
			got := rspq.Baseline(inst.G, min, inst.X, inst.Y, &stats)
			nodes += stats.Nodes
			agree(t, inst.G, min, inst.X, inst.Y, got)
			if got.Found != reduction.SolveVDP(vdp) {
				same = false
				t.Errorf("n=%d seed=%d: RSPQ answers %v, VDP answers %v", n, seed, got.Found, !got.Found)
			}
		}
		row(w, n, reduced, same, nodes)
	}
}

// e4 replays the Example 2 / Figure 3 walkthrough of the summary solver.
func e4(t *testing.T, w io.Writer) {
	const pattern, word = "a(c{2,}|())(a|b)*(ac)?a*", "accccababacaa"
	s := mustSolver(t, pattern)
	fmt.Fprintf(w, "Example 2 language `%s`: class %v, Ψtr form `%s`\n\n", pattern, s.Classification.Class, s.Expr)
	g, x, y := graph.LabeledPath(word)
	res := rspq.SolvePsitr(g, s.Expr, x, y, false)
	if !res.Found || res.Path.Word() != word {
		t.Fatalf("word path %s: %+v", word, res)
	}
	fmt.Fprintf(w, "- word path `%s`: found=%v, witness word `%s`\n", word, res.Found, res.Path.Word())
	// A c-run of 6 into an (a|b)-run of 4, which starts at vertex 7.
	g, x, y = graph.LabeledPath("accccccabab")
	summ, base := rspq.SolvePsitr(g, s.Expr, x, y, false), rspq.Baseline(g, s.Min, x, y, nil)
	if !agree(t, g, s.Min, x, y, summ, base) || !summ.Found {
		t.Errorf("branching instance: summary=%v baseline=%v, want both true", summ.Found, base.Found)
	}
	fmt.Fprintf(w, "- branching instance (c-run of 6 into (a|b)-run of 4 from vertex 7): summary=%v baseline=%v\n", summ.Found, base.Found)
	short, baseShort := rspq.SolvePsitr(g, s.Expr, x, y, true), rspq.BaselineShortest(g, s.Min, x, y, nil)
	if !agree(t, g, s.Min, x, y, short, baseShort) || !short.Found || short.Path.Len() != baseShort.Path.Len() {
		t.Fatalf("shortest: summary %+v, baseline %+v", short, baseShort)
	}
	fmt.Fprintf(w, "- shortest simple path length: %d (summary) vs %d (baseline)\n", short.Path.Len(), baseShort.Path.Len())
}

// e5 runs the Figure 4 family, where an L-walk exists but no simple
// L-path does, and the loop-trap family, where loop elimination misses
// a simple path that exists.
func e5(t *testing.T, w io.Writer) {
	s := mustSolver(t, "a*(bb+|())c*")
	fmt.Fprint(w, "Figure 4 family, L = a*(bb+|())c*  (true answer is always NO):\n\n")
	header(w, "k", "vertices", "L-walk exists", "naive", "summary", "baseline")
	for _, k := range []int{2, 4, 8, 16} {
		f := graph.NewFigure4(k)
		walk := rspq.ExistsWalk(f.G, s.Min, f.X0, f.Y2k)
		naive := rspq.Naive(f.G, s.Min, f.X0, f.Y2k).Found
		summ := rspq.SolvePsitr(f.G, s.Expr, f.X0, f.Y2k, false).Found
		base := rspq.Baseline(f.G, s.Min, f.X0, f.Y2k, nil).Found
		if !walk || naive || summ || base {
			t.Errorf("k=%d: walk=%v naive=%v summary=%v baseline=%v, want true false false false", k, walk, naive, summ, base)
		}
		row(w, k, f.G.NumVertices(), walk, naive, summ, base)
	}
	fmt.Fprint(w, "\nLoop-trap family, L = a*bba*  (true answer is always YES; naive answers NO):\n\n")
	header(w, "detour", "naive", "baseline (exact)")
	d := mustMinDFA(t, "a*bba*")
	for _, detour := range []int{2, 4, 8} {
		tr := graph.NewLoopTrap(detour)
		naive := rspq.Naive(tr.G, d, tr.X, tr.Y)
		base := rspq.Baseline(tr.G, d, tr.X, tr.Y, nil)
		agree(t, tr.G, d, tr.X, tr.Y, naive, base)
		if naive.Found || !base.Found {
			t.Errorf("detour=%d: naive=%v baseline=%v, want false true", detour, naive.Found, base.Found)
		}
		row(w, detour, naive.Found, base.Found)
	}
}

// e6 shows the vertex-labeled split of §4.1: (ab)* is NP-complete on
// edge-labeled graphs, where the baseline's search explodes, and
// NL-complete on vertex-labeled graphs.
func e6(t *testing.T, w io.Writer) {
	s := mustSolver(t, "(ab)*")
	edge, vlg := core.Classify(s.Min, core.EdgeLabeled, nil).Class, core.Classify(s.Min, core.VertexLabeled, nil).Class
	if edge != core.NPComplete || vlg != core.NLComplete {
		t.Errorf("(ab)*: %v / %v, want NP-complete / NL-complete", edge, vlg)
	}
	fmt.Fprintf(w, "`(ab)*`: %v on edge-labeled graphs, %v on vertex-labeled graphs\n\n", edge, vlg)
	header(w, "n", "edge-labeled baseline nodes")
	for _, n := range []int{50, 100, 200, 400} {
		vg := graph.RandomVGraph(n, []byte("ab"), 6.0/float64(n), int64(n))
		db := vg.DBGraph()
		rng := rand.New(rand.NewSource(3))
		for q := 0; q < 20; q++ {
			x, y := rng.Intn(n), rng.Intn(n)
			agree(t, db, s.Min, x, y, s.SolveVlg(vg, x, y))
		}
		ge := graph.Random(n/5, []byte("ab"), 8.0/float64(n/5), int64(n))
		var stats rspq.BaselineStats
		rspq.Baseline(ge, s.Min, 0, n/5-1, &stats)
		row(w, n, fmt.Sprintf("%d (on n=%d)", stats.Nodes, n/5))
	}
}

// e7 shows Theorem 3's split operationally: a DFA is tested for trC
// directly, an NFA pays an exponential determinization first. Both
// families are in trC.
func e7(t *testing.T, w io.Writer) {
	fmt.Fprint(w, "DFA representation (polynomial): chain languages a{1,k}b*\n\n")
	header(w, "k", "DFA states")
	for _, k := range []int{4, 8, 16, 32} {
		d := mustMinDFA(t, fmt.Sprintf("a{1,%d}b*", k))
		if d.NumStates != k+2 {
			t.Errorf("a{1,%d}b*: %d DFA states, want %d", k, d.NumStates, k+2)
		}
		if !core.TrCFromDFA(d) {
			t.Errorf("a{1,%d}b*: not in trC", k)
		}
		row(w, k, d.NumStates)
	}
	fmt.Fprint(w, "\nNFA representation (exponential blowup): (a|b)*a(a|b){k}\n\n")
	header(w, "k", "NFA states", "determinized states")
	for _, k := range []int{2, 3, 4, 5, 6} {
		r, err := automaton.ParseRegex(fmt.Sprintf("(a|b)*a(a|b){%d}", k))
		if err != nil {
			t.Fatal(err)
		}
		n := automaton.CompileRegex(r, nil)
		det := n.Determinize().Minimize()
		if det.NumStates != 1<<(k+1) {
			t.Errorf("k=%d: %d determinized states, want 2^%d", k, det.NumStates, k+1)
		}
		if !core.TrCFromDFA(det) {
			t.Errorf("k=%d: not in trC", k)
		}
		row(w, k, n.NumStates, det.NumStates)
	}
}

// e8 runs color coding for k-RSPQ (Theorem 7) on a graph with a planted
// 6-edge witness: the answer flips from NO to YES exactly at k = 6.
func e8(t *testing.T, w io.Writer) {
	d := mustMinDFA(t, "a*ba*")
	g := graph.RandomRegular(60, []byte("ab"), 3, 17)
	planted, word := []int{0, 41, 42, 43, 44, 45, 59}, "aabaaa"
	for i := 0; i+1 < len(planted); i++ {
		g.AddEdge(planted[i], word[i], planted[i+1])
	}
	header(w, "k", "found")
	for _, k := range []int{2, 4, 6, 8, 10} {
		res := rspq.ColorCoding(g, d, 0, 59, k, rspq.ColorCodingOptions{Seed: 9, Trials: 200})
		agree(t, g, d, 0, 59, res)
		if res.Found != (k >= 6) || res.Found && res.Path.Len() > k {
			t.Errorf("k=%d: found=%v (path %v)", k, res.Found, res.Path)
		}
		row(w, k, res.Found)
	}
}

// e9 evaluates RSPQ on layered DAGs, where every walk is simple
// (Theorem 8), and checks each answer against the exact baseline.
func e9(t *testing.T, w io.Writer) {
	header(w, "layers×width", "DFA states", "found rate")
	for _, shape := range [][2]int{{6, 5}, {12, 10}, {24, 20}} {
		layers, width := shape[0], shape[1]
		dag := graph.LayeredDAG(layers, width, 3, []byte("ab"), 5)
		for _, p := range []string{"(a|b)*", "(a|b)*a(a|b)*", "a{1,8}b*a*", "(a|b)*a(a|b)a(a|b)*"} {
			d := mustMinDFA(t, p)
			const queries = 10
			found := 0
			for q := 0; q < queries; q++ {
				x, y := q%width, (layers-1)*width+q%width
				res, ok := rspq.DAG(dag, d, x, y)
				if !ok || !agree(t, dag, d, x, y, res, rspq.Baseline(dag, d, x, y, nil)) {
					t.Errorf("%s on %d×%d, (%d, %d): DAG (ok=%v) and baseline disagree", p, layers, width, x, y, ok)
				}
				if res.Found {
					found++
				}
			}
			row(w, fmt.Sprintf("%d×%d", layers, width), fmt.Sprintf("%d (`%s`)", d.NumStates, p), fmt.Sprintf("%d/%d", found, queries))
		}
	}
}

// e10 validates the Lemma 17 reduction from reachability.
func e10(t *testing.T, w io.Writer) {
	min := mustMinDFA(t, "a*(bb+|())c*").Minimize()
	u, v, wd, err := reduction.PumpingTriple(min)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "Pumping triple for Example 1 language: u=%q v=%q w=%q (u·v*·w ⊆ L)\n\n", u, v, wd)
	header(w, "n", "queries", "agreements")
	for _, n := range []int{10, 20, 40} {
		agreements, total := 0, 0
		for seed := int64(0); seed < 4; seed++ {
			g := graph.Random(n, []byte{'z'}, 2.0/float64(n), seed+int64(n))
			for y := 1; y < n; y += n / 4 {
				inst, err := reduction.FromReachability(g, 0, y, min)
				if err != nil {
					t.Fatal(err)
				}
				got := rspq.Baseline(inst.G, min, inst.X, inst.Y, nil)
				agree(t, inst.G, min, inst.X, inst.Y, got)
				total++
				if got.Found == reduction.Reachable(g, 0, y) {
					agreements++
				}
			}
		}
		if agreements != total {
			t.Errorf("n=%d: %d of %d reduced answers agree with reachability", n, agreements, total)
		}
		row(w, n, total, agreements)
	}
}

// e11 checks Theorem 4's forward direction on random Ψtr expressions:
// each is in trC, and normalization round-trips its language exactly.
func e11(t *testing.T, w io.Writer) {
	rng := rand.New(rand.NewSource(2024))
	const trials = 200
	trC, roundTrips := 0, 0
	for i := 0; i < trials; i++ {
		e := psitr.RandomExpr(rng, []byte("abc"), 2, 3)
		d := e.MinDFA(nil)
		if core.InTrC(d) {
			trC++
		}
		if e2, err := psitr.FromRegex(e.ToRegex()); err == nil && automaton.Equivalent(d, e2.MinDFA(nil)) {
			roundTrips++
		}
	}
	if trC != trials || roundTrips != trials {
		t.Errorf("%d trials: %d in trC, %d exact round-trips", trials, trC, roundTrips)
	}
	header(w, "trials", "in trC", "exact round-trips")
	row(w, trials, trC, roundTrips)
	fmt.Fprint(w, "\nBoth columns must equal the trial count (Theorem 4 forward direction + normalizer self-verification).\n")
}

// e12 checks the subword-closed walk reduction against the summary
// solver and the baseline on a*c*.
func e12(t *testing.T, w io.Writer) {
	s := mustSolver(t, "a*c*")
	header(w, "n", "agree")
	for _, n := range []int{100, 200, 400, 800} {
		g := graph.RandomRegular(n, []byte("abc"), 3, int64(n)+999)
		rng := rand.New(rand.NewSource(5))
		same := true
		for q := 0; q < 20; q++ {
			x, y := rng.Intn(n), rng.Intn(n)
			same = agree(t, g, s.Min, x, y, rspq.Subword(g, s.Min, x, y), rspq.SolvePsitr(g, s.Expr, x, y, false), rspq.Baseline(g, s.Min, x, y, nil)) && same
		}
		if !same {
			t.Errorf("n=%d: subword, summary and baseline disagree", n)
		}
		row(w, n, same)
	}
}
