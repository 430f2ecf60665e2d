// Command rspqbench prints the experiment tables E1–E12. Each experiment
// exercises one of the paper's claims; the index — experiment id, the
// theorem, lemma or example it checks — is the experiments table in
// main below, mirrored by BenchmarkE1..E12 in bench_test.go. Output is
// GitHub-flavored markdown.
//
// Usage:
//
//	rspqbench          # run every experiment
//	rspqbench -exp e5  # run one experiment
//
// Performance is measured by the repo benchmark (bash bench/run.sh),
// not here.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/automaton"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/psitr"
	"repro/internal/reduction"
	"repro/internal/rspq"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e12 or all")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"e1", "Classification table (Theorems 1–2, 5)", e1},
		{"e2", "Tractable-solver scaling (Example 1 language)", e2},
		{"e3", "NP-hardness reduction (Lemma 5 / Figure 1)", e3},
		{"e4", "Summary walkthrough (Example 2 / Figure 3)", e4},
		{"e5", "Loop-elimination counterexample (Example 4 / Figure 4)", e5},
		{"e6", "Vertex-labeled split (§4.1)", e6},
		{"e7", "Recognition complexity (Theorem 3)", e7},
		{"e8", "Color-coding FPT (Theorem 7)", e8},
		{"e9", "DAG combined complexity (Theorem 8)", e9},
		{"e10", "NL-hardness reduction (Lemma 17)", e10},
		{"e11", "Ψtr fragment (Theorem 4)", e11},
		{"e12", "Subword-closed ablation (Mendelzon–Wood trC(0))", e12},
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		fmt.Printf("## %s — %s\n\n", strings.ToUpper(e.id), e.name)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "rspqbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func mustSolver(pattern string) *rspq.Solver {
	s, err := rspq.NewSolver(pattern)
	if err != nil {
		panic(err)
	}
	return s
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// e1 prints the classification of every catalog language and checks it
// against the paper's claims.
func e1() {
	fmt.Println("| language | pattern | M | edge-labeled | vertex-labeled | Ψtr form | matches paper |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, entry := range catalog.All() {
		d, err := automaton.MinDFAFromPattern(entry.Pattern)
		if err != nil {
			panic(err)
		}
		edge := core.Classify(d, core.EdgeLabeled, nil)
		vlg := core.Classify(d, core.VertexLabeled, nil)
		form := "—"
		if r, err := automaton.ParseRegex(entry.Pattern); err == nil {
			if e, err := psitr.FromRegex(r); err == nil {
				form = e.String()
			}
		}
		match := edge.Class == entry.Class && vlg.Class == entry.VlgClass
		fmt.Printf("| %s | `%s` | %d | %v | %v | `%s` | %v |\n",
			entry.Name, entry.Pattern, edge.M, edge.Class, vlg.Class, form, match)
	}
}

// e2 measures the polynomial scaling of the summary solver on the
// Example 1 language and contrasts it with the exact baseline.
func e2() {
	s := mustSolver("a*(bb+|())c*")
	fmt.Println("| n | edges | summary (ms/query) | baseline (ms/query) | agree |")
	fmt.Println("|---|---|---|---|---|")
	for _, n := range []int{50, 100, 200, 400, 800} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n))
		const queries = 20
		rng := rand.New(rand.NewSource(7))
		pairs := make([][2]int, queries)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		agree := true
		var sumT, baseT time.Duration
		for _, pq := range pairs {
			var a, b rspq.Result
			sumT += timeIt(func() { a = rspq.SolvePsitr(g, s.Expr, pq[0], pq[1], false) })
			baseT += timeIt(func() { b = rspq.Baseline(g, s.Min, pq[0], pq[1], nil) })
			if a.Found != b.Found {
				agree = false
			}
		}
		fmt.Printf("| %d | %d | %.3f | %.3f | %v |\n",
			n, g.NumEdges(),
			float64(sumT.Microseconds())/1000/queries,
			float64(baseT.Microseconds())/1000/queries, agree)
	}
	fmt.Println("\nExpected shape: both columns grow polynomially here (random" +
		" regular graphs are easy for the pruned baseline); the summary solver" +
		" is the one with a worst-case guarantee — see E3 for the instances" +
		" where the baseline blows up.")
}

// e3 validates the Lemma 5 reduction and exhibits exponential baseline
// work on reduced instances versus polynomial work for a tractable
// language on graphs of the same size.
func e3() {
	d, err := automaton.MinDFAFromPattern("a*b(cc)*d")
	if err != nil {
		panic(err)
	}
	w, err := core.ExtractHardnessWitness(d.Minimize(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Property-(1) witness for `a*b(cc)*d`: %s\n\n", w)
	fmt.Println("| VDP vertices | reduced vertices | answers agree | baseline nodes (hard L) | summary nodes proxy (Example 1 on same size) |")
	fmt.Println("|---|---|---|---|---|")
	easy := mustSolver("a*(bb+|())c*")
	for _, n := range []int{4, 6, 8, 10, 12} {
		agree := true
		var hardNodes int64
		var easyT time.Duration
		for seed := int64(0); seed < 5; seed++ {
			g := graph.Random(n, []byte{'z'}, 0.3, seed*11+int64(n))
			vdp := reduction.VDPInstance{G: g, X1: 0, Y1: 1, X2: 2, Y2: 3}
			inst, err := reduction.FromVDP(vdp, w)
			if err != nil {
				panic(err)
			}
			var stats rspq.BaselineStats
			got := rspq.Baseline(inst.G, d.Minimize(), inst.X, inst.Y, &stats)
			hardNodes += stats.Nodes
			if got.Found != reduction.SolveVDP(vdp) {
				agree = false
			}
			ge := graph.RandomRegular(inst.G.NumVertices(), []byte{'a', 'b', 'c'}, 3, seed)
			easyT += timeIt(func() { rspq.SolvePsitr(ge, easy.Expr, 0, inst.G.NumVertices()-1, false) })
		}
		gSize := 0
		if inst, err := reduction.FromVDP(reduction.VDPInstance{
			G: graph.Random(n, []byte{'z'}, 0.3, int64(n)), X1: 0, Y1: 1, X2: 2, Y2: 3}, w); err == nil {
			gSize = inst.G.NumVertices()
		}
		fmt.Printf("| %d | %d | %v | %d | %s |\n", n, gSize, agree, hardNodes, easyT/5)
	}
}

// e4 replays the Example 2 / Figure 3 walkthrough.
func e4() {
	s := mustSolver("a(c{2,}|())(a|b)*(ac)?a*")
	fmt.Printf("Example 2 language `a(c{2,}|())(a|b)*(ac)?a*`: class %v, Ψtr form `%s`\n\n",
		s.Classification.Class, s.Expr)
	g, x, y := graph.LabeledPath("accccababacaa")
	res := rspq.SolvePsitr(g, s.Expr, x, y, false)
	fmt.Printf("- word path `accccababacaa`: found=%v, witness word `%s`\n", res.Found, res.Path.Word())
	// A branching variant where the c-run and the (a|b)-run compete.
	g2 := graph.New(0)
	v0 := g2.AddVertex()
	v1 := g2.AddVertex()
	g2.AddEdge(v0, 'a', v1)
	cur := v1
	for i := 0; i < 6; i++ {
		next := g2.AddVertex()
		g2.AddEdge(cur, 'c', next)
		cur = next
	}
	mid := cur
	for i := 0; i < 4; i++ {
		next := g2.AddVertex()
		label := byte('a')
		if i%2 == 1 {
			label = 'b'
		}
		g2.AddEdge(cur, label, next)
		cur = next
	}
	res2 := rspq.SolvePsitr(g2, s.Expr, v0, cur, false)
	base := rspq.Baseline(g2, s.Min, v0, cur, nil)
	fmt.Printf("- branching instance (c-run of 6 into (a|b)-run of 4 from vertex %d): summary=%v baseline=%v\n",
		mid, res2.Found, base.Found)
	fmt.Printf("- shortest simple path length: %d (summary) vs %d (baseline)\n",
		pathLen(rspq.SolvePsitr(g2, s.Expr, v0, cur, true)), pathLen(rspq.BaselineShortest(g2, s.Min, v0, cur, nil)))
}

func pathLen(r rspq.Result) int {
	if !r.Found {
		return -1
	}
	return r.Path.Len()
}

// e5 runs the Figure 4 counterexample family and the loop-trap family
// against the naive heuristic.
func e5() {
	d, _ := automaton.MinDFAFromPattern("a*(bb+|())c*")
	fmt.Println("Figure 4 family, L = a*(bb+|())c*  (true answer is always NO):")
	fmt.Println()
	fmt.Println("| k | vertices | L-walk exists | naive | summary | baseline |")
	fmt.Println("|---|---|---|---|---|---|")
	s := mustSolver("a*(bb+|())c*")
	for _, k := range []int{2, 4, 8, 16} {
		f := graph.NewFigure4(k)
		walk := rspq.ExistsWalk(f.G, d, f.X0, f.Y2k)
		naive := rspq.Naive(f.G, d, f.X0, f.Y2k).Found
		summ := rspq.SolvePsitr(f.G, s.Expr, f.X0, f.Y2k, false).Found
		base := rspq.Baseline(f.G, d, f.X0, f.Y2k, nil).Found
		fmt.Printf("| %d | %d | %v | %v | %v | %v |\n", k, f.G.NumVertices(), walk, naive, summ, base)
	}
	fmt.Println()
	fmt.Println("Loop-trap family, L = a*bba*  (true answer is always YES; naive answers NO):")
	fmt.Println()
	fmt.Println("| detour | naive | baseline (exact) |")
	fmt.Println("|---|---|---|")
	dd, _ := automaton.MinDFAFromPattern("a*bba*")
	for _, detour := range []int{2, 4, 8} {
		tr := graph.NewLoopTrap(detour)
		naive := rspq.Naive(tr.G, dd, tr.X, tr.Y).Found
		base := rspq.Baseline(tr.G, dd, tr.X, tr.Y, nil).Found
		fmt.Printf("| %d | %v | %v |\n", detour, naive, base)
	}
}

// e6 demonstrates the vertex-labeled split for (ab)*: polynomial on
// vl-graphs, exponential-search on edge-labeled graphs.
func e6() {
	s := mustSolver("(ab)*")
	fmt.Printf("`(ab)*`: %v on edge-labeled graphs, %v on vertex-labeled graphs\n\n",
		core.Classify(s.Min, core.EdgeLabeled, nil).Class,
		core.Classify(s.Min, core.VertexLabeled, nil).Class)
	fmt.Println("| n | vl-graph solve (ms) | edge-labeled baseline nodes |")
	fmt.Println("|---|---|---|")
	for _, n := range []int{50, 100, 200, 400} {
		vg := graph.RandomVGraph(n, []byte{'a', 'b'}, 6.0/float64(n), int64(n))
		var vt time.Duration
		const queries = 20
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < queries; i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			vt += timeIt(func() { rspq.VlgSolve(vg, s.Min, s.Expr, x, y) })
		}
		// Edge-labeled instance of the same size.
		ge := graph.Random(n/5, []byte{'a', 'b'}, 8.0/float64(n/5), int64(n))
		var stats rspq.BaselineStats
		rspq.Baseline(ge, s.Min, 0, n/5-1, &stats)
		fmt.Printf("| %d | %.3f | %d (on n=%d) |\n",
			n, float64(vt.Microseconds())/1000/queries, stats.Nodes, n/5)
	}
}

// e7 measures trC recognition: polynomial for DFAs, exponential
// determinization blowup for NFAs (Theorem 3's split, operationally).
func e7() {
	fmt.Println("DFA representation (polynomial): chain languages a{1,k}b*")
	fmt.Println()
	fmt.Println("| k | DFA states | trC test (ms) |")
	fmt.Println("|---|---|---|")
	for _, k := range []int{4, 8, 16, 32} {
		pattern := fmt.Sprintf("a{1,%d}b*", k)
		d, err := automaton.MinDFAFromPattern(pattern)
		if err != nil {
			panic(err)
		}
		t := timeIt(func() { core.TrCFromDFA(d) })
		fmt.Printf("| %d | %d | %.3f |\n", k, d.NumStates, float64(t.Microseconds())/1000)
	}
	fmt.Println()
	fmt.Println("NFA representation (exponential blowup): (a|b)*a(a|b){k}")
	fmt.Println()
	fmt.Println("| k | NFA states | determinized states | trC test total (ms) |")
	fmt.Println("|---|---|---|---|")
	for _, k := range []int{2, 3, 4, 5, 6} {
		pattern := fmt.Sprintf("(a|b)*a(a|b){%d}", k)
		r, err := automaton.ParseRegex(pattern)
		if err != nil {
			panic(err)
		}
		n := automaton.CompileRegex(r, nil)
		var det *automaton.DFA
		t := timeIt(func() {
			det = n.Determinize().Minimize()
			core.TrCFromDFA(det)
		})
		fmt.Printf("| %d | %d | %d | %.3f |\n", k, n.NumStates, det.NumStates, float64(t.Microseconds())/1000)
	}
}

// e8 shows the 2^{O(k)} growth of color coding in k at fixed graph
// size, with linear behavior in graph size at fixed k.
func e8() {
	d, _ := automaton.MinDFAFromPattern("a*ba*")
	fmt.Println("| k | time (ms, n=60) | found |")
	fmt.Println("|---|---|---|")
	g := graph.RandomRegular(60, []byte{'a', 'b'}, 3, 17)
	// Plant a 6-edge witness path 0 → … → 59 spelling aabaaa, so the
	// table flips from NO to YES exactly at k = 6.
	planted := []int{0, 41, 42, 43, 44, 45, 59}
	word := "aabaaa"
	for i := 0; i+1 < len(planted); i++ {
		g.AddEdge(planted[i], word[i], planted[i+1])
	}
	for _, k := range []int{2, 4, 6, 8, 10} {
		var res rspq.Result
		t := timeIt(func() {
			res = rspq.ColorCoding(g, d, 0, 59, k, rspq.ColorCodingOptions{Seed: 9, Trials: 200})
		})
		fmt.Printf("| %d | %.2f | %v |\n", k, float64(t.Microseconds())/1000, res.Found)
	}
	fmt.Println()
	fmt.Println("| n (k=5) | time (ms) |")
	fmt.Println("|---|---|")
	for _, n := range []int{40, 80, 160, 320} {
		gn := graph.RandomRegular(n, []byte{'a', 'b'}, 3, int64(n))
		t := timeIt(func() {
			rspq.ColorCoding(gn, d, 0, n-1, 5, rspq.ColorCodingOptions{Seed: 9, Trials: 100})
		})
		fmt.Printf("| %d | %.2f |\n", n, float64(t.Microseconds())/1000)
	}
}

// e9 demonstrates polynomial combined complexity on DAGs: scaling in
// both the graph and the automaton.
func e9() {
	fmt.Println("| layers×width | DFA states | time (ms/query) | found rate |")
	fmt.Println("|---|---|---|---|")
	patterns := []string{"(a|b)*", "(a|b)*a(a|b)*", "a{1,8}b*a*", "(a|b)*a(a|b)a(a|b)*"}
	for _, shape := range [][2]int{{6, 5}, {12, 10}, {24, 20}} {
		dag := graph.LayeredDAG(shape[0], shape[1], 3, []byte{'a', 'b'}, 5)
		for _, p := range patterns {
			d, err := automaton.MinDFAFromPattern(p)
			if err != nil {
				panic(err)
			}
			const queries = 10
			found := 0
			var tt time.Duration
			for q := 0; q < queries; q++ {
				x := q % shape[1]
				y := (shape[0]-1)*shape[1] + q%shape[1]
				tt += timeIt(func() {
					if res, ok := rspq.DAG(dag, d, x, y); ok && res.Found {
						found++
					}
				})
			}
			fmt.Printf("| %d×%d | %d (`%s`) | %.3f | %d/%d |\n",
				shape[0], shape[1], d.NumStates, p, float64(tt.Microseconds())/1000/queries, found, queries)
		}
	}
}

// e10 validates the Lemma 17 reduction on growing random graphs.
func e10() {
	d, _ := automaton.MinDFAFromPattern("a*(bb+|())c*")
	min := d.Minimize()
	u, v, w, err := reduction.PumpingTriple(min)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Pumping triple for Example 1 language: u=%q v=%q w=%q (u·v*·w ⊆ L)\n\n", u, v, w)
	fmt.Println("| n | queries | agreements |")
	fmt.Println("|---|---|---|")
	for _, n := range []int{10, 20, 40} {
		agreements, total := 0, 0
		for seed := int64(0); seed < 4; seed++ {
			g := graph.Random(n, []byte{'z'}, 2.0/float64(n), seed+int64(n))
			for y := 1; y < n; y += n / 4 {
				inst, err := reduction.FromReachability(g, 0, y, min)
				if err != nil {
					panic(err)
				}
				got := rspq.Baseline(inst.G, min, inst.X, inst.Y, nil).Found
				want := reduction.Reachable(g, 0, y)
				total++
				if got == want {
					agreements++
				}
			}
		}
		fmt.Printf("| %d | %d | %d |\n", n, total, agreements)
	}
}

// e11 exercises Theorem 4: random Ψtr expressions are always trC, and
// normalization round-trips preserve the language.
func e11() {
	rng := rand.New(rand.NewSource(2024))
	const trials = 200
	trC, roundTrips := 0, 0
	for i := 0; i < trials; i++ {
		e := psitr.RandomExpr(rng, []byte{'a', 'b', 'c'}, 2, 3)
		d := e.MinDFA(nil)
		if core.InTrC(d) {
			trC++
		}
		if e2, err := psitr.FromRegex(e.ToRegex()); err == nil {
			if automaton.Equivalent(d, e2.MinDFA(nil)) {
				roundTrips++
			}
		}
	}
	fmt.Printf("| trials | in trC | exact round-trips |\n|---|---|---|\n| %d | %d | %d |\n", trials, trC, roundTrips)
	fmt.Println("\nBoth columns must equal the trial count (Theorem 4 forward direction + normalizer self-verification).")
}

// e12 compares the subword-closed fast path with the general summary
// solver and the baseline on a*c*.
func e12() {
	s := mustSolver("a*c*")
	fmt.Println("| n | subword walk (ms/q) | summary (ms/q) | baseline (ms/q) | agree |")
	fmt.Println("|---|---|---|---|---|")
	for _, n := range []int{100, 200, 400, 800} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n)+999)
		const queries = 20
		rng := rand.New(rand.NewSource(5))
		var swT, suT, baT time.Duration
		agree := true
		for i := 0; i < queries; i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			var a, b, c rspq.Result
			swT += timeIt(func() { a = rspq.Subword(g, s.Min, x, y) })
			suT += timeIt(func() { b = rspq.SolvePsitr(g, s.Expr, x, y, false) })
			baT += timeIt(func() { c = rspq.Baseline(g, s.Min, x, y, nil) })
			if a.Found != b.Found || b.Found != c.Found {
				agree = false
			}
		}
		ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 / queries }
		fmt.Printf("| %d | %.3f | %.3f | %.3f | %v |\n", n, ms(swT), ms(suT), ms(baT), agree)
	}
	_ = sort.Ints // keep sort imported for future table ordering needs
}
