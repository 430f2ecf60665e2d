// Command rspq evaluates a regular simple path query on a db-graph.
//
// The graph file uses the line format of internal/graph:
//
//	n <numVertices>
//	e <from> <label> <to>
//
// Usage:
//
//	rspq -graph g.txt -pattern 'a*(bb+|())c*' -from 0 -to 7
//	rspq -graph g.txt -pattern '(aa)*' -from 0 -to 7 -algo baseline
//	rspq -graph g.txt -pattern '(aa)*' -from 0 -to 7 -shortest
//
// -shortest runs the tier the dispatcher picks, so it takes no -algo.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/rspq"
)

func main() {
	graphPath := flag.String("graph", "", "path to the graph file")
	pattern := flag.String("pattern", "", "regular expression")
	from := flag.Int("from", 0, "source vertex")
	to := flag.Int("to", 0, "target vertex")
	algo := flag.String("algo", "auto", "algorithm: auto, finite, subword, summary, dag, baseline, walk, naive")
	shortest := flag.Bool("shortest", false, "return a shortest simple path")
	dot := flag.Bool("dot", false, "emit the graph with the found path highlighted as Graphviz DOT")
	flag.Parse()
	if *graphPath == "" || *pattern == "" {
		fmt.Fprintln(os.Stderr, "rspq: -graph and -pattern are required")
		flag.Usage()
		os.Exit(2)
	}
	chosen, err := parseAlgo(*algo, *shortest)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rspq: %v\n", err)
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rspq: %v\n", err)
		os.Exit(1)
	}
	g, err := graph.ReadText(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rspq: %v\n", err)
		os.Exit(1)
	}

	s, err := rspq.NewSolver(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rspq: %v\n", err)
		os.Exit(1)
	}

	// The library answers out-of-range ids with a clean no-path result;
	// interactively a bad id is almost certainly a typo, so diagnose it.
	if *from < 0 || *from >= g.NumVertices() || *to < 0 || *to >= g.NumVertices() {
		fmt.Fprintf(os.Stderr, "rspq: query vertices out of range [0,%d)\n", g.NumVertices())
		os.Exit(1)
	}

	tier, res := answer(s, g, *from, *to, chosen, *shortest)
	fmt.Printf("language class : %v\n", s.Classification.Class)
	fmt.Printf("algorithm      : %v\n", tier)
	if !res.Found {
		fmt.Println("result         : no simple path")
		os.Exit(0)
	}
	fmt.Printf("result         : found (length %d)\n", res.Path.Len())
	fmt.Printf("word           : %s\n", res.Path.Word())
	fmt.Printf("path           : %v\n", res.Path)
	if *dot {
		if err := g.WriteDOT(os.Stdout, res.Path); err != nil {
			fmt.Fprintf(os.Stderr, "rspq: %v\n", err)
			os.Exit(1)
		}
	}
}

// answer runs the query and reports the tier that answered it: a forced
// algorithm that does not apply runs, and is reported as, the baseline.
// parseAlgo pairs shortest only with AlgoAuto.
func answer(s *rspq.Solver, g *graph.Graph, x, y int, algo rspq.Algorithm, shortest bool) (rspq.Algorithm, rspq.Result) {
	tier := s.TierFor(g, algo)
	if shortest {
		return tier, s.Shortest(g, x, y)
	}
	return tier, s.SolveWith(g, x, y, algo)
}

// parseAlgo resolves the -algo flag. -shortest asks Solver.Shortest,
// which always runs the dispatcher's tier, so it is rejected together
// with any algorithm but auto.
func parseAlgo(name string, shortest bool) (rspq.Algorithm, error) {
	algos := map[string]rspq.Algorithm{
		"auto": rspq.AlgoAuto, "finite": rspq.AlgoFinite, "subword": rspq.AlgoSubword,
		"summary": rspq.AlgoSummary, "dag": rspq.AlgoDAG, "baseline": rspq.AlgoBaseline,
		"walk": rspq.AlgoWalk, "naive": rspq.AlgoNaive,
	}
	algo, ok := algos[name]
	switch {
	case !ok:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	case shortest && algo != rspq.AlgoAuto:
		return 0, errors.New("-shortest runs the dispatcher's tier; drop -algo " + name)
	}
	return algo, nil
}
