package rspq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/psitr"
)

// TestQuickSummaryAgreesOnRandomPsitr is the strongest property test in
// the repository: generate a random Ψtr expression (always a trC
// language, Theorem 4) and a random graph, and require the polynomial
// summary solver to agree with the exponential baseline on a random
// query.
func TestQuickSummaryAgreesOnRandomPsitr(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	property := func() bool {
		e := psitr.RandomExpr(rng, []byte{'a', 'b'}, 2, 2)
		min := e.MinDFA(nil)
		n := 6 + rng.Intn(5)
		g := graph.Random(n, []byte{'a', 'b'}, 0.12+rng.Float64()*0.2, rng.Int63())
		x, y := rng.Intn(n), rng.Intn(n)
		got := SolvePsitr(g, e, x, y, false)
		want := Baseline(g, min, x, y, nil)
		if got.Found != want.Found {
			t.Logf("expr=%v n=%d (%d,%d): summary=%v baseline=%v\n%s", e, n, x, y, got.Found, want.Found, g)
			return false
		}
		return VerifyWitness(got, g, min, x, y)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWalkSubsumesSimple: whenever a simple L-path exists, an
// L-walk exists, and the shortest walk is never longer than the shortest
// simple path (reference.lengths holds both) — on 40 small random
// graphs, for every language of every answer row.
func TestQuickWalkSubsumesSimple(t *testing.T) {
	checkGraphs(t, languagesOf(answerRows()...), 40, 2, func(seed int64) *graph.Graph {
		return graph.Random(6+int(seed%4), []byte{'a', 'b', 'c'}, 0.2, seed+77)
	}, "Solver")
}

// TestQuickRemoveLoopsInvariants: loop removal yields a simple path
// with the same endpoints whose word is obtained by factor deletions.
func TestQuickRemoveLoopsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	property := func() bool {
		n := 5 + rng.Intn(5)
		g := graph.Random(n, []byte{'a', 'b'}, 0.3, rng.Int63())
		// Random walk of bounded length.
		v := rng.Intn(n)
		p := graph.PathAt(v)
		for step := 0; step < 12; step++ {
			out := g.OutEdges(p.Target())
			if len(out) == 0 {
				break
			}
			e := out[rng.Intn(len(out))]
			p = p.Append(e.Label, e.To)
		}
		r := p.RemoveLoops()
		if !r.IsSimple() || !r.ValidIn(g) {
			return false
		}
		return r.Source() == p.Source() && r.Target() == p.Target() && r.Len() <= p.Len()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
