// Command trcheck classifies a regular language per the paper's
// trichotomy (Theorem 2): AC⁰, NL-complete or NP-complete, for the
// edge-labeled and vertex-labeled graph models, and prints the Ψtr
// normal form (Theorem 4) or the verified hardness witness (Lemma 4).
//
// Usage:
//
//	trcheck -pattern 'a*(bb+|())c*'
//	trcheck -pattern '(ab)*' -model vlg
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/psitr"
	"repro/internal/rspq"
)

func main() {
	pattern := flag.String("pattern", "", "regular expression (union '|', postfix '*' '+' '?', classes '[abc]', bounds '{n,m}', ε as '()')")
	model := flag.String("model", "both", "graph model to classify: edge, vlg or both")
	flag.Parse()
	if *pattern == "" {
		fmt.Fprintln(os.Stderr, "trcheck: -pattern is required")
		flag.Usage()
		os.Exit(2)
	}
	models, err := parseModel(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trcheck: %v\n", err)
		os.Exit(2)
	}

	r, err := automaton.ParseRegex(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trcheck: %v\n", err)
		os.Exit(1)
	}
	min := automaton.CompileRegexToMinDFA(r, nil)
	fmt.Printf("pattern         : %s\n", *pattern)
	fmt.Printf("minimal DFA     : %d states over %s\n", min.NumStates, min.Alphabet)
	fmt.Printf("finite          : %v\n", min.IsFinite())
	if aperiodic, complete := min.IsAperiodic(0); complete {
		fmt.Printf("aperiodic       : %v\n", aperiodic)
	}
	fmt.Printf("subword-closed  : %v (Mendelzon–Wood trC(0))\n", rspq.SubwordClosed(min))

	report := func(m core.Model) {
		cls := core.Classify(min, m, nil)
		fmt.Printf("%-15s : %v\n", m.String(), cls.Class)
		if cls.Class != core.NPComplete {
			return
		}
		// Classify only decides the tier; the witness is the model's
		// own search (vlg loop words must end with the same letter).
		var classOf func(a, b byte) bool
		if m == core.VertexLabeled {
			classOf = func(a, b byte) bool { return a == b }
		}
		if w, err := core.ExtractHardnessWitness(min, classOf); err == nil {
			fmt.Printf("  hardness witness (Property 1): %s\n", w)
		}
	}
	for _, m := range models {
		report(m)
	}

	if e, err := psitr.FromRegex(r); err == nil {
		fmt.Printf("Ψtr normal form : %s\n", e)
	} else {
		fmt.Printf("Ψtr normal form : none (%v)\n", err)
	}
}

// parseModel resolves the -model flag to the graph models to classify,
// before any work is done.
func parseModel(name string) ([]core.Model, error) {
	switch name {
	case "edge":
		return []core.Model{core.EdgeLabeled}, nil
	case "vlg":
		return []core.Model{core.VertexLabeled}, nil
	case "both":
		return []core.Model{core.EdgeLabeled, core.VertexLabeled}, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}
