package reduction

import (
	"testing"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rspq"
)

func witnessFor(t *testing.T, pattern string) (*automaton.DFA, *core.HardnessWitness) {
	t.Helper()
	d, err := automaton.MinDFAFromPattern(pattern)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.ExtractHardnessWitness(d, nil)
	if err != nil {
		t.Fatalf("witness for %q: %v", pattern, err)
	}
	return d, w
}

// TestVDPReductionFigure1 replays Figure 1's language a*b(cc)*d and
// validates the reduction end-to-end on randomized VDP instances: the
// RSPQ answer through the baseline solver must equal the brute-force
// VDP answer.
func TestVDPReductionFigure1(t *testing.T) {
	patterns := []string{"a*b(cc)*d", "(aa)*", "a*ba*", "a*bc*"}
	for _, pattern := range patterns {
		d, w := witnessFor(t, pattern)
		for seed := int64(0); seed < 10; seed++ {
			g := graph.Random(6, []byte{'z'}, 0.25, seed*7+2)
			// Strip labels: VDP is about the digraph only; relabel all
			// edges 'z' (FromVDP replaces them with witness words).
			vdp := VDPInstance{G: g, X1: 0, Y1: 1, X2: 2, Y2: 3}
			inst, err := FromVDP(vdp, w)
			if err != nil {
				t.Fatalf("%q seed %d: %v", pattern, seed, err)
			}
			want := SolveVDP(vdp)
			got := rspq.Baseline(inst.G, d, inst.X, inst.Y, nil)
			if got.Found != want {
				t.Fatalf("%q seed %d: RSPQ=%v VDP=%v\nwitness %v", pattern, seed, got.Found, want, w)
			}
			if !rspq.VerifyWitness(got, inst.G, d, inst.X, inst.Y) {
				t.Fatal("invalid reduction witness path")
			}
		}
	}
}

// TestVDPPositiveNegativeHandMade exercises both answers on crafted
// instances.
func TestVDPPositiveNegativeHandMade(t *testing.T) {
	// Positive: two parallel disjoint chains.
	pos := graph.New(6)
	pos.AddEdge(0, 'z', 1) // x1 → y1
	pos.AddEdge(2, 'z', 3) // x2 → y2
	if !SolveVDP(VDPInstance{G: pos, X1: 0, Y1: 1, X2: 2, Y2: 3}) {
		t.Error("parallel chains must be a YES instance")
	}
	// Negative: both paths forced through a single cut vertex.
	neg := graph.New(5)
	neg.AddEdge(0, 'z', 4)
	neg.AddEdge(4, 'z', 1)
	neg.AddEdge(2, 'z', 4)
	neg.AddEdge(4, 'z', 3)
	if SolveVDP(VDPInstance{G: neg, X1: 0, Y1: 1, X2: 2, Y2: 3}) {
		t.Error("shared cut vertex must be a NO instance")
	}
	// And through the reduction:
	d, w := witnessFor(t, "a*b(cc)*d")
	instPos, err := FromVDP(VDPInstance{G: pos, X1: 0, Y1: 1, X2: 2, Y2: 3}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rspq.Baseline(instPos.G, d, instPos.X, instPos.Y, nil).Found {
		t.Error("reduced positive instance should have a simple L-path")
	}
	instNeg, err := FromVDP(VDPInstance{G: neg, X1: 0, Y1: 1, X2: 2, Y2: 3}, w)
	if err != nil {
		t.Fatal(err)
	}
	if rspq.Baseline(instNeg.G, d, instNeg.X, instNeg.Y, nil).Found {
		t.Error("reduced negative instance should have no simple L-path")
	}
}

func TestPumpingTriple(t *testing.T) {
	d, _ := automaton.MinDFAFromPattern("ab*c")
	u, v, w, err := PumpingTriple(d)
	if err != nil {
		t.Fatal(err)
	}
	if u == "" || v == "" || w == "" {
		t.Fatalf("triple has empty parts: %q %q %q", u, v, w)
	}
	// u·v^i·w ∈ L for several i.
	for i := 0; i < 4; i++ {
		word := u
		for j := 0; j < i; j++ {
			word += v
		}
		word += w
		if !d.Member(word) {
			t.Fatalf("u v^%d w = %q not in language", i, word)
		}
	}
	// Finite languages cannot be pumped.
	fin, _ := automaton.MinDFAFromPattern("ab|ba")
	if _, _, _, err := PumpingTriple(fin); err == nil {
		t.Error("finite language must error")
	}
}

// TestReachabilityReduction validates Lemma 17 on random graphs for
// several infinite languages.
func TestReachabilityReduction(t *testing.T) {
	patterns := []string{"a*", "ab*c", "a*(bb+|())c*", "(aa)*"}
	for _, pattern := range patterns {
		d, err := automaton.MinDFAFromPattern(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 8; seed++ {
			g := graph.Random(8, []byte{'z'}, 0.15, seed*3+1)
			inst, err := FromReachability(g, 0, 7, d)
			if err != nil {
				t.Fatalf("%q: %v", pattern, err)
			}
			want := Reachable(g, 0, 7)
			got := rspq.Baseline(inst.G, d, inst.X, inst.Y, nil)
			if got.Found != want {
				t.Fatalf("%q seed %d: RSPQ=%v reach=%v", pattern, seed, got.Found, want)
			}
		}
	}
}

// TestReductionUsesClassifierWitness wires the reduction to the
// compiled solver's on-demand witness, the way the library does.
func TestReductionUsesClassifierWitness(t *testing.T) {
	s, err := rspq.NewSolver("(ab)*")
	if err != nil {
		t.Fatal(err)
	}
	w := s.HardnessWitness()
	if s.Classification.Class != core.NPComplete || w == nil {
		t.Fatalf("(ab)* should be NP-complete with a witness, got %+v", s.Classification)
	}
	g := graph.New(4)
	g.AddEdge(0, 'z', 1)
	g.AddEdge(2, 'z', 3)
	inst, err := FromVDP(VDPInstance{G: g, X1: 0, Y1: 1, X2: 2, Y2: 3}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rspq.Baseline(inst.G, s.Min, inst.X, inst.Y, nil).Found {
		t.Error("positive VDP must reduce to positive RSPQ")
	}
}
