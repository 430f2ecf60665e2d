package main

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rspq"
)

func TestParseAlgo(t *testing.T) {
	for _, c := range []struct {
		name     string
		shortest bool
		want     rspq.Algorithm
		ok       bool
	}{
		{"auto", false, rspq.AlgoAuto, true},
		{"auto", true, rspq.AlgoAuto, true},
		{"baseline", false, rspq.AlgoBaseline, true},
		{"walk", false, rspq.AlgoWalk, true},
		{"baseline", true, 0, false},
		{"summary", true, 0, false},
		{"bogus", false, 0, false},
	} {
		got, err := parseAlgo(c.name, c.shortest)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseAlgo(%q, shortest=%v) = %v, %v; want %v, ok=%v", c.name, c.shortest, got, err, c.want, c.ok)
		}
	}
}

// TestAnswerReportsFallbackTier pins that the printed algorithm is the
// tier that ran: a forced tier that does not apply runs the baseline,
// and the CLI says so.
func TestAnswerReportsFallbackTier(t *testing.T) {
	path, err := graph.ReadText(strings.NewReader("n 3\ne 0 a 1\ne 1 a 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := graph.ReadText(strings.NewReader("n 3\ne 0 a 1\ne 1 a 2\ne 2 a 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	// The loop trap's shortest a*bba* walk repeats its b-loop, and
	// removing the loop leaves the language: only a search finds aaabba.
	trap := graph.NewLoopTrap(3)
	for _, c := range []struct {
		pattern string
		g       *graph.Graph
		y       int
		algo    rspq.Algorithm
	}{
		{"(aa)*", path, 2, rspq.AlgoSummary},         // no Ψtr form
		{"a*", path, 2, rspq.AlgoFinite},             // infinite language
		{"(aa)*", cycle, 2, rspq.AlgoDAG},            // cyclic graph
		{"a*bba*", trap.G, trap.Y, rspq.AlgoSubword}, // not subword-closed
	} {
		s, err := rspq.NewSolver(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		tier, res := answer(s, c.g, 0, c.y, c.algo, false)
		if tier != rspq.AlgoBaseline || !res.Found {
			t.Errorf("%q -algo %v: reported %v, found=%v; want baseline, found", c.pattern, c.algo, tier, res.Found)
		}
	}
}
