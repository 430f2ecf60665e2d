package core

import (
	"strings"
	"testing"

	"repro/internal/automaton"
)

func mustMinDFA(t *testing.T, pattern string) *automaton.DFA {
	t.Helper()
	d, err := automaton.MinDFAFromPattern(pattern)
	if err != nil {
		t.Fatalf("pattern %q: %v", pattern, err)
	}
	return d
}

// The paper's language corpus with its claimed classifications.
// Sources: abstract and §1 for (aa)*, a*ba*, a*bc*; Example 1 for
// a*(bb+|())c*; Example 2 for a(c{2,}|())(a|b)*(ac)?a*; Figure 1 for
// a*b(cc)*d; §4.1 for the vertex-labeled split of (ab)* and a*bc*.
var corpus = []struct {
	pattern string
	inTrC   bool
	inVlg   bool
}{
	{"(aa)*", false, false},
	{"a*ba*", false, false},
	{"a*bc*", false, true},
	{"(ab)*", false, true},
	{"a*b(cc)*d", false, false},
	{"a*(bb+|())c*", true, true},
	{"a(c{2,}|())(a|b)*(ac)?a*", true, true},
	{"a*", true, true},
	{"a*c*", true, true},
	{"(a|b)*", true, true},
	{"ab|ba", true, true}, // finite
	{"abc", true, true},   // finite
	{"∅", true, true},     // empty
	{"()", true, true},    // {ε}
	{"a*(b|())", true, true},
	// Σ*bΣ* ("contains a b") is NOT in trC: pumping a^M·b·a^M per
	// Definition 1 with w1 = w2 = a deletes the mandatory b. Same
	// structure as the canonical hard language a*ba*.
	{"(a|b)*b(a|b)*", false, false},
	{"a+b+", true, true},
}

func TestTrCCorpus(t *testing.T) {
	for _, c := range corpus {
		d := mustMinDFA(t, c.pattern)
		if got := InTrC(d); got != c.inTrC {
			t.Errorf("InTrC(%q) = %v, want %v", c.pattern, got, c.inTrC)
		}
		if got := InTrCvlg(d); got != c.inVlg {
			t.Errorf("InTrCvlg(%q) = %v, want %v", c.pattern, got, c.inVlg)
		}
	}
}

func TestTrCImpliesVlg(t *testing.T) {
	// trC ⊆ trCvlg (restricting the pairs can only relax the test).
	for _, c := range corpus {
		if c.inTrC && !c.inVlg {
			t.Fatalf("corpus claims %q ∈ trC \\ trCvlg, impossible", c.pattern)
		}
		d := mustMinDFA(t, c.pattern)
		if InTrC(d) && !InTrCvlg(d) {
			t.Errorf("%q: InTrC but not InTrCvlg", c.pattern)
		}
	}
}

// shortWords returns all words over alpha of length ≤ maxLen.
func shortWords(alpha string, maxLen int) []string {
	words := []string{""}
	frontier := []string{""}
	for l := 0; l < maxLen; l++ {
		var next []string
		for _, w := range frontier {
			for i := 0; i < len(alpha); i++ {
				next = append(next, w+string(alpha[i]))
			}
		}
		words = append(words, next...)
		frontier = next
	}
	return words
}

// TestTrCDefinitionSampling validates the checker against Definition 1
// directly: for languages the checker accepts, no sampled word tuple may
// violate the trC(M) pumping property (Lemma 2 fixes the exponent at M).
func TestTrCDefinitionSampling(t *testing.T) {
	outer := shortWords("abc", 2)
	inner := shortWords("abc", 2)[1:] // non-empty
	if len(outer) > 13 {
		outer = outer[:13]
	}
	if len(inner) > 12 {
		inner = inner[:12]
	}
	for _, c := range corpus {
		if !c.inTrC {
			continue
		}
		d := mustMinDFA(t, c.pattern)
		m := d.NumStates
		for _, wl := range outer {
			for _, wm := range outer {
				for _, wr := range outer {
					for _, w1 := range inner {
						for _, w2 := range inner {
							pumped := wl + strings.Repeat(w1, m) + wm + strings.Repeat(w2, m) + wr
							collapsed := wl + strings.Repeat(w1, m) + strings.Repeat(w2, m) + wr
							if d.Member(pumped) && !d.Member(collapsed) {
								t.Fatalf("%q: trC(M) violated with wl=%q w1=%q wm=%q w2=%q wr=%q",
									c.pattern, wl, w1, wm, w2, wr)
							}
						}
					}
				}
			}
		}
	}
}

// TestHardnessWitnesses extracts and re-verifies Property-(1) witnesses
// for every intractable corpus language, and checks that the witness
// induces trC(i) violations at every exponent i (which the reduction of
// Lemma 5 relies on).
func TestHardnessWitnesses(t *testing.T) {
	for _, c := range corpus {
		if c.inTrC {
			continue
		}
		d := mustMinDFA(t, c.pattern)
		w, err := ExtractHardnessWitness(d, nil)
		if err != nil {
			t.Fatalf("ExtractHardnessWitness(%q): %v", c.pattern, err)
		}
		if err := w.Verify(d); err != nil {
			t.Fatalf("witness for %q does not verify: %v", c.pattern, err)
		}
		for _, i := range []int{0, 1, d.NumStates, d.NumStates + 3} {
			pumped := w.WL + strings.Repeat(w.W1, i) + w.WM + strings.Repeat(w.W2, i) + w.WR
			collapsed := w.WL + strings.Repeat(w.W1, i) + strings.Repeat(w.W2, i) + w.WR
			if !d.Member(pumped) {
				t.Errorf("%q i=%d: pumped word should be in L", c.pattern, i)
			}
			if d.Member(collapsed) {
				t.Errorf("%q i=%d: collapsed word should be outside L", c.pattern, i)
			}
		}
	}
}

func TestClassifyTrichotomy(t *testing.T) {
	cases := []struct {
		pattern string
		model   Model
		want    Class
	}{
		{"ab|ba", EdgeLabeled, AC0},
		{"abc", VertexLabeled, AC0},
		{"∅", EdgeLabeled, AC0},
		{"a*(bb+|())c*", EdgeLabeled, NLComplete},
		{"a*", EdgeLabeled, NLComplete},
		{"(aa)*", EdgeLabeled, NPComplete},
		{"a*ba*", EdgeLabeled, NPComplete},
		{"a*bc*", EdgeLabeled, NPComplete},
		{"a*bc*", VertexLabeled, NLComplete},
		{"(ab)*", EdgeLabeled, NPComplete},
		{"(ab)*", VertexLabeled, NLComplete},
		{"(aa)*", VertexLabeled, NPComplete},
		{"a*ba*", VertexLabeled, NPComplete},
	}
	for _, c := range cases {
		d := mustMinDFA(t, c.pattern)
		got := Classify(d, c.model, nil)
		if got.Class != c.want {
			t.Errorf("Classify(%q, %v) = %v, want %v", c.pattern, c.model, got.Class, c.want)
		}
		if got.Class == NPComplete {
			// Classify does not search; the model's witness must exist
			// for every NP verdict.
			var classOf func(a, b byte) bool
			if c.model == VertexLabeled {
				classOf = func(a, b byte) bool { return a == b }
			}
			if w, err := ExtractHardnessWitness(d, classOf); err != nil {
				t.Errorf("Classify(%q, %v): no hardness witness: %v", c.pattern, c.model, err)
			} else if err := w.Verify(d); err != nil {
				t.Errorf("Classify(%q, %v): witness does not verify: %v", c.pattern, c.model, err)
			}
			if got.FailPair == nil {
				t.Errorf("Classify(%q, %v): missing inclusion failure", c.pattern, c.model)
			}
		}
	}
}

func TestClassifyEvlg(t *testing.T) {
	// Over a product alphabet where 'a' and 'b' carry the same vertex
	// label but different edge labels, (ab)* becomes tractable (the
	// loops end on ≡evl-equivalent letters... they end on different
	// letters which ARE equivalent, so the pair is tested and passes as
	// in the vlg case for (aa)-style collapses). Compare against the
	// fully-distinguishing classOf, which matches vlg.
	d := mustMinDFA(t, "(ab)*")
	sameVertex := func(x, y byte) bool { return true } // one vertex label
	got := Classify(d, VertexEdgeLabeled, sameVertex)
	// With all letters equivalent the test coincides with plain trC:
	// (ab)* stays NP-complete.
	if got.Class != NPComplete {
		t.Errorf("evlg with single vertex class: %v, want NP-complete", got.Class)
	}
	distinct := func(x, y byte) bool { return x == y }
	got = Classify(d, VertexEdgeLabeled, distinct)
	if got.Class != NLComplete {
		t.Errorf("evlg with distinguishing classes: %v, want NL-complete", got.Class)
	}
}

func TestInclusionFailureWord(t *testing.T) {
	got := Classify(mustMinDFA(t, "(aa)*"), EdgeLabeled, nil)
	if got.FailPair == nil {
		t.Fatal("no failure recorded")
	}
	d := mustMinDFA(t, "(aa)*")
	// The recorded word lies outside L_{q1}.
	if d.MemberFrom(got.FailPair.Q1, got.FailPair.Word) {
		t.Error("failure word should be outside L_q1")
	}
}

func TestRecognitionRepresentations(t *testing.T) {
	r := automaton.MustParseRegex("a*(bb+|())c*")
	if !TrCFromRegex(r) {
		t.Error("Example 1 language must be in trC (regex path)")
	}
	n := automaton.CompileRegex(automaton.MustParseRegex("(aa)*"), nil)
	if TrCFromNFA(n) {
		t.Error("(aa)* must not be in trC (NFA path)")
	}
	if !TrCFromDFA(mustMinDFA(t, "a*c*")) {
		t.Error("a*c* must be in trC (DFA path)")
	}
}

func TestEmptinessGadget(t *testing.T) {
	empty := mustMinDFA(t, "∅")
	g1 := EmptinessGadget(empty, '1')
	if !InTrC(g1) {
		t.Error("gadget of empty language must be in trC")
	}
	nonEmpty := mustMinDFA(t, "ab|b")
	g2 := EmptinessGadget(nonEmpty, '1')
	if InTrC(g2) {
		t.Error("gadget of non-empty language must not be in trC")
	}
	// Language shape check: marker*·L·marker⁺.
	if !g2.Member("ab1") || !g2.Member("11b111") || g2.Member("ab") || g2.Member("111") {
		t.Error("gadget language shape wrong")
	}
}

func TestUniversalityGadget(t *testing.T) {
	universal := automaton.MustParseRegex("(0|1)*")
	gu := UniversalityGadget(universal)
	if !TrCFromRegex(gu) {
		t.Error("gadget of {0,1}* must be in trC")
	}
	partial := automaton.MustParseRegex("0*")
	gp := UniversalityGadget(partial)
	if TrCFromRegex(gp) {
		t.Error("gadget of 0* must not be in trC")
	}
}

func TestModelAndClassStrings(t *testing.T) {
	if EdgeLabeled.String() == "" || VertexLabeled.String() == "" || VertexEdgeLabeled.String() == "" {
		t.Error("model strings empty")
	}
	if AC0.String() != "AC0" || NLComplete.String() != "NL-complete" || NPComplete.String() != "NP-complete" {
		t.Error("class strings wrong")
	}
	if Model(99).String() == "" || Class(99).String() == "" {
		t.Error("unknown values should still render")
	}
}

func TestTrCLevelUpperBound(t *testing.T) {
	if TrCLevelUpperBound(mustMinDFA(t, "(aa)*")) != 2 {
		t.Error("bound for (aa)* should be 2")
	}
}
