package automaton

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustDFA(t *testing.T, pattern string) *DFA {
	t.Helper()
	d, err := MinDFAFromPattern(pattern)
	if err != nil {
		t.Fatalf("MinDFAFromPattern(%q): %v", pattern, err)
	}
	return d
}

func TestMinimizeSizes(t *testing.T) {
	cases := []struct {
		pattern string
		states  int // minimal complete DFA size, including sink if any
	}{
		{"(aa)*", 2},        // over {a}: even/odd, complete, no sink needed
		{"a*", 1},           // single accepting state
		{"a*b*", 3},         // a-phase, b-phase, sink
		{"(ab)*", 3},        // q0, q1, sink
		{"ab", 4},           // 3 chain states + sink
		{"∅", 1},            // single rejecting sink
		{"()", 2},           // accept-ε state + sink (alphabet empty → 1)
		{"a|aa|aaa", 5},     // counting chain + sink
		{"(a|b)*", 1},       // universal over {a,b}
		{"(a|b)*a(a|b)", 4}, // classic: needs 4 states deterministically
	}
	for _, c := range cases {
		d := mustDFA(t, c.pattern)
		if c.pattern == "()" {
			// ε has an empty alphabet: minimal complete DFA has a single
			// accepting state and no transitions.
			if d.NumStates != 1 {
				t.Errorf("minimal DFA for %q: %d states, want 1", c.pattern, d.NumStates)
			}
			continue
		}
		if d.NumStates != c.states {
			t.Errorf("minimal DFA for %q: %d states, want %d\n%s", c.pattern, d.NumStates, c.states, d)
		}
	}
}

func TestEquivalentPatterns(t *testing.T) {
	pairs := [][2]string{
		{"a*(bb+|())c*", "a*(bb+)?c*"},
		{"(a|b)*", "(a*b*)*"},
		{"a+", "aa*"},
		{"a?", "a|()"},
		{"(ab)*a", "a(ba)*"},
		{"a{2,4}", "aa(a|())(a|())"},
		{"a{0,}", "a*"},
	}
	for _, p := range pairs {
		d1, d2 := mustDFA(t, p[0]), mustDFA(t, p[1])
		if !Equivalent(d1, d2) {
			t.Errorf("%q and %q should be equivalent", p[0], p[1])
		}
	}
	inequivalent := [][2]string{
		{"(aa)*", "a*"},
		{"a*ba*", "a*b+a*"},
		{"(ab)*", "(ba)*"},
	}
	for _, p := range inequivalent {
		d1, d2 := mustDFA(t, p[0]), mustDFA(t, p[1])
		if Equivalent(d1, d2) {
			t.Errorf("%q and %q should differ", p[0], p[1])
		}
	}
}

func TestProductOps(t *testing.T) {
	a := mustDFA(t, "a*b*")
	b := mustDFA(t, "b*a*")
	inter := Intersect(a, b)
	union := UnionDFA(a, b)
	diff := Difference(a, b)

	words := []string{"", "a", "b", "ab", "ba", "aab", "bba", "abab", "aabb", "bbaa"}
	for _, w := range words {
		ia, ib := a.Member(w), b.Member(w)
		if got := inter.Member(w); got != (ia && ib) {
			t.Errorf("intersect %q: got %v", w, got)
		}
		if got := union.Member(w); got != (ia || ib) {
			t.Errorf("union %q: got %v", w, got)
		}
		if got := diff.Member(w); got != (ia && !ib) {
			t.Errorf("difference %q: got %v", w, got)
		}
	}
	if !Subset(mustDFA(t, "(aa)*"), mustDFA(t, "a*")) {
		t.Error("(aa)* ⊆ a* expected")
	}
	if Subset(mustDFA(t, "a*"), mustDFA(t, "(aa)*")) {
		t.Error("a* ⊄ (aa)* expected")
	}
}

func TestComplementDifferentAlphabets(t *testing.T) {
	// Complement is relative to the automaton's own alphabet; check via
	// SymmetricDifference against an explicitly extended automaton.
	a := mustDFA(t, "a*")
	ext := a.ExtendAlphabet(NewAlphabet('a', 'b'))
	if ext.Member("b") {
		t.Error("extended a* must reject b")
	}
	if !ext.Member("aaa") {
		t.Error("extended a* must accept aaa")
	}
	comp := ext.Complement()
	if comp.Member("aa") || !comp.Member("ab") {
		t.Error("complement over {a,b} wrong")
	}
}

func TestShortestWord(t *testing.T) {
	cases := []struct {
		pattern string
		want    string
	}{
		{"a*ba*", "b"},
		{"aa(b|c)", "aab"},
		{"(aa)*", ""},
		{"a+", "a"},
		{"ba*|ab", "b"},
	}
	for _, c := range cases {
		d := mustDFA(t, c.pattern)
		got, ok := d.ShortestWord()
		if !ok {
			t.Errorf("%q: no word found", c.pattern)
			continue
		}
		if got != c.want {
			t.Errorf("%q: shortest word %q, want %q", c.pattern, got, c.want)
		}
	}
	if _, ok := mustDFA(t, "∅").ShortestWord(); ok {
		t.Error("∅ has no shortest word")
	}
}

func TestShortestNonEmptyLoop(t *testing.T) {
	d := mustDFA(t, "(aa)*")
	// State 0 is the start (even); its shortest loop is "aa".
	w, ok := d.ShortestNonEmptyLoop(d.Start)
	if !ok || w != "aa" {
		t.Errorf("loop at start of (aa)*: %q ok=%v, want \"aa\"", w, ok)
	}
	dab := mustDFA(t, "(ab)*")
	w, ok = dab.ShortestNonEmptyLoop(dab.Start)
	if !ok || w != "ab" {
		t.Errorf("loop at start of (ab)*: %q ok=%v, want \"ab\"", w, ok)
	}
}

func TestRunOutsideAlphabet(t *testing.T) {
	d := mustDFA(t, "a*")
	if d.Member("ax") {
		t.Error("word with foreign letter must be rejected")
	}
	if _, ok := d.Run(d.Start, "x"); ok {
		t.Error("Run must report foreign letters")
	}
}

func TestQuickMinimizeIdempotent(t *testing.T) {
	// Property: minimizing twice yields the same automaton, and the
	// minimized automaton is equivalent to the original.
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		r := randRegex(rng, 3)
		d := CompileRegex(r, NewAlphabet('a', 'b')).Determinize()
		m1 := d.Minimize()
		m2 := m1.Minimize()
		if m1.NumStates != m2.NumStates {
			return false
		}
		return Equivalent(d, m1) && Equivalent(m1, m2)
	}
	cfg := &quick.Config{MaxCount: 120}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// Property: complement of union equals intersection of complements.
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		a := CompileRegexToMinDFA(randRegex(rng, 2), NewAlphabet('a', 'b'))
		b := CompileRegexToMinDFA(randRegex(rng, 2), NewAlphabet('a', 'b'))
		lhs := UnionDFA(a, b).Complement()
		rhs := Intersect(a.Complement(), b.Complement())
		return Equivalent(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseNFA(t *testing.T) {
	r := MustParseRegex("ab*c")
	rev := CompileRegex(r, nil).Reverse().Determinize().Minimize()
	want := mustDFA(t, "cb*a")
	if !Equivalent(rev, want) {
		t.Error("reverse of ab*c should be cb*a")
	}
}

func TestWithStartQuotient(t *testing.T) {
	d := mustDFA(t, "abc")
	q, ok := d.Run(d.Start, "a")
	if !ok {
		t.Fatal("run failed")
	}
	suffix := d.WithStart(q)
	if !suffix.Member("bc") || suffix.Member("abc") || suffix.Member("c") {
		t.Error("state language after 'a' should be exactly {bc}")
	}
}

func TestStringRendering(t *testing.T) {
	d := mustDFA(t, "a")
	s := d.String()
	if !strings.Contains(s, "DFA states=") {
		t.Errorf("unexpected rendering: %s", s)
	}
}
