package trichotomy

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

func TestCompileAndClassify(t *testing.T) {
	cases := []struct {
		pattern string
		class   Class
		inTrC   bool
		finite  bool
	}{
		{"a*(bb+|())c*", NLComplete, true, false},
		{"(aa)*", NPComplete, false, false},
		{"ab|ba", AC0, true, true},
		{"a*ba*", NPComplete, false, false},
		{"a*c*", NLComplete, true, false},
	}
	for _, c := range cases {
		l, err := Compile(c.pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.pattern, err)
		}
		if l.Class() != c.class || l.InTrC() != c.inTrC || l.IsFinite() != c.finite {
			t.Errorf("%q: class=%v trC=%v finite=%v, want %v/%v/%v",
				c.pattern, l.Class(), l.InTrC(), l.IsFinite(), c.class, c.inTrC, c.finite)
		}
	}
	if _, err := Compile("(unbalanced"); err == nil {
		t.Error("bad pattern must error")
	}
}

func TestQuickstartFlow(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	lang := MustCompile("a*(bb+|())c*")
	res := lang.Solve(g, 0, 3)
	if !res.Found || res.Path.Word() != "abb" {
		t.Fatalf("quickstart: %v", res)
	}
	sh := lang.Shortest(g, 0, 3)
	if !sh.Found || sh.Path.Len() != 3 {
		t.Fatalf("shortest: %v", sh)
	}
	if !lang.Member("abb") || lang.Member("ab") {
		t.Error("Member wrong")
	}
}

func TestWalkVsSimpleSemantics(t *testing.T) {
	// 0 -a-> 1 -b-> 0 cycle: (abab) walk exists from 0 back to 0, but
	// no simple path does.
	g := NewGraph(2)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 0)
	lang := MustCompile("abab")
	if !lang.SolveWalk(g, 0, 0).Found {
		t.Error("walk semantics should find abab")
	}
	if lang.Solve(g, 0, 0).Found {
		t.Error("simple-path semantics must reject abab on a 2-cycle")
	}
}

func TestVlgFacade(t *testing.T) {
	vg := NewVGraph([]byte{'x', 'a', 'b'})
	vg.AddEdge(0, 1)
	vg.AddEdge(1, 2)
	lang := MustCompile("(ab)*")
	if lang.Class() != NPComplete {
		t.Error("(ab)* should be NP-complete on edge-labeled graphs")
	}
	if lang.ClassifyVlg() != NLComplete {
		t.Error("(ab)* should be NL-complete on vertex-labeled graphs")
	}
	res := lang.SolveVlg(vg, 0, 2)
	if !res.Found || res.Path.Word() != "ab" {
		t.Fatalf("vlg solve: %v", res)
	}
}

func TestBoundedFacade(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'a', 3)
	lang := MustCompile("a*ba*")
	if !lang.SolveBounded(g, 0, 3, 3, 1).Found {
		t.Error("k=3 should find the aba path")
	}
	if lang.SolveBounded(g, 0, 3, 2, 1).Found {
		t.Error("k=2 is too short")
	}
}

func TestDescribeAndWitness(t *testing.T) {
	hard := MustCompile("(aa)*")
	if hard.HardnessWitness() == "" {
		t.Error("NP-complete language must carry a witness")
	}
	if !strings.Contains(hard.Describe(), "NP-complete") {
		t.Errorf("Describe: %s", hard.Describe())
	}
	easy := MustCompile("a*(bb+|())c*")
	if easy.HardnessWitness() != "" {
		t.Error("tractable language has no witness")
	}
	if easy.PsitrForm() == "" {
		t.Error("Example 1 language must expose a Ψtr form")
	}
	if !strings.Contains(easy.Describe(), "Ψtr") {
		t.Errorf("Describe: %s", easy.Describe())
	}
	if easy.MinimalDFASize() == 0 || easy.Pattern() == "" {
		t.Error("metadata missing")
	}
}

// TestHardnessWitnessOnDemand pins the lazy witness: Compile no longer
// searches, yet every NP-complete catalog language yields the witness
// the Compile-time search used to produce, verified against the minimal
// DFA; tractable and finite languages yield none; concurrent first
// callers share one search; Describe still carries it.
func TestHardnessWitnessOnDemand(t *testing.T) {
	want := map[string]string{
		"(aa)*":         `q=0 wl="" w1="aa" wm="a" w2="aaaa" wr="aaaaaaaaa"`,
		"a*ba*":         `q=0 wl="" w1="a" wm="b" w2="aaa" wr="aaaaaaaaa"`,
		"a*bc*":         `q=0 wl="" w1="a" wm="b" w2="ccc" wr="ccccccccc"`,
		"(ab)*":         `q=0 wl="" w1="ab" wm="a" w2="bababa" wr="bababababababababab"`,
		"a*b(cc)*d":     `q=0 wl="" w1="a" wm="b" w2="cccccccccc" wr="ccccccccccccccccccccccccccccccccccccccccccccccccccd"`,
		"(a|b)*b(a|b)*": `q=0 wl="" w1="a" wm="b" w2="aa" wr="aaaa"`,
		"a*bba*":        `q=0 wl="" w1="a" wm="bb" w2="aaaa" wr="aaaaaaaaaaaaaaaa"`,
	}
	hard := 0
	for _, e := range catalog.All() {
		l := MustCompile(e.Pattern)
		got := l.HardnessWitness()
		if e.Class != NPComplete {
			if got != "" {
				t.Errorf("%s (%v): witness %q, want none", e.Pattern, e.Class, got)
			}
			continue
		}
		hard++
		if got != want[e.Pattern] {
			t.Errorf("%s: witness %q, want %q", e.Pattern, got, want[e.Pattern])
		}
		if err := l.solver.HardnessWitness().Verify(l.solver.Min); err != nil {
			t.Errorf("%s: witness does not verify: %v", e.Pattern, err)
		}
		if d := l.Describe(); !strings.Contains(d, "hardness witness: "+got) {
			t.Errorf("%s: Describe lacks the witness: %s", e.Pattern, d)
		}
	}
	if hard != len(want) {
		t.Errorf("%d NP-complete catalog languages, %d pinned witnesses", hard, len(want))
	}

	l := MustCompile("a*bc*")
	ptrs := make([]*core.HardnessWitness, 8)
	var wg sync.WaitGroup
	for i := range ptrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ptrs[i] = l.solver.HardnessWitness()
		}()
	}
	wg.Wait()
	for i, p := range ptrs {
		if p == nil || p != ptrs[0] {
			t.Fatalf("goroutine %d got witness %p, goroutine 0 got %p", i, p, ptrs[0])
		}
	}
}

func TestAlgorithmFor(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	g.AddEdge(2, 'a', 0)
	if algo := MustCompile("a*(bb+|())c*").AlgorithmFor(g); algo != "summary" {
		t.Errorf("expected summary, got %s", algo)
	}
	if algo := MustCompile("(aa)*").AlgorithmFor(g); algo != "baseline" {
		t.Errorf("expected baseline, got %s", algo)
	}
}

func TestBatchFacade(t *testing.T) {
	lang := MustCompile("a*(bb+|())c*")
	g := NewGraph(5)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	g.AddEdge(3, 'c', 4)
	pairs := []Pair{{X: 0, Y: 4}, {X: 0, Y: 3}, {X: 4, Y: 0}, {X: -1, Y: 2}, {X: 2, Y: 99}}
	got := lang.BatchSolve(g, pairs)
	if len(got) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(got), len(pairs))
	}
	for i, pq := range pairs {
		want := lang.Solve(g, pq.X, pq.Y)
		if got[i].Found != want.Found {
			t.Errorf("pair %v: batch=%v solve=%v", pq, got[i].Found, want.Found)
		}
	}
	if !got[0].Found || got[0].Path.Word() != "abbc" {
		t.Errorf("batch witness for (0,4): %v", got[0].Path)
	}
	if got[3].Found || got[4].Found {
		t.Error("out-of-range pairs must report Found=false")
	}
	// Reusable engine with explicit worker count.
	bs := lang.NewBatchSolver(g).SetWorkers(2)
	again := bs.Solve(pairs)
	for i := range pairs {
		if again[i].Found != got[i].Found {
			t.Errorf("pair %v: engine reuse diverged", pairs[i])
		}
	}
}

func TestSolveOutOfRangeFacade(t *testing.T) {
	lang := MustCompile("a*c*")
	g := NewGraph(2)
	g.AddEdge(0, 'a', 1)
	for _, pq := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 7}} {
		if lang.Solve(g, pq[0], pq[1]).Found {
			t.Errorf("Solve(%d,%d) found", pq[0], pq[1])
		}
		if lang.Shortest(g, pq[0], pq[1]).Found {
			t.Errorf("Shortest(%d,%d) found", pq[0], pq[1])
		}
		if lang.SolveWalk(g, pq[0], pq[1]).Found {
			t.Errorf("SolveWalk(%d,%d) found", pq[0], pq[1])
		}
		if lang.SolveBounded(g, pq[0], pq[1], 3, 1).Found {
			t.Errorf("SolveBounded(%d,%d) found", pq[0], pq[1])
		}
	}
}

func TestEngineFacade(t *testing.T) {
	lang := MustCompile("a*(bb+|())c*")
	g := NewGraph(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	eng := lang.NewEngine(g, EngineConfig{})
	if !eng.Solve(0, 3).Found || !eng.Exists(0, 3) {
		t.Fatal("engine must find the abb path")
	}
	eng.Solve(0, 3) // hot repeat
	st := eng.Stats()
	if st.Results.Hits == 0 {
		t.Fatalf("repeat query must hit the result cache: %+v", st)
	}
	pairs := []Pair{{X: 0, Y: 3}, {X: 1, Y: 3}, {X: 3, Y: 0}, {X: -1, Y: 2}}
	out := eng.BatchSolve(pairs)
	bits := eng.BatchSolveExists(pairs)
	wantBits := []bool{true, true, false, false}
	for i := range pairs {
		if out[i].Found != wantBits[i] || bits[i] != wantBits[i] {
			t.Fatalf("batch slot %d: Solve=%v Exists=%v; want %v",
				i, out[i].Found, bits[i], wantBits[i])
		}
	}
	// Mutation invalidates by epoch: a new edge opens a path from 3.
	g.AddEdge(3, 'c', 0)
	if !eng.Solve(3, 0).Found {
		t.Fatal("engine must see the post-mutation edge")
	}
	if lang.BatchSolveExists(g, []Pair{{X: 3, Y: 0}})[0] != true {
		t.Fatal("facade BatchSolveExists must see the new edge")
	}
}
