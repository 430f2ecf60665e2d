package trichotomy

// One testing.B benchmark per experiment E1–E12 (the index, with the
// claim of the paper each one exercises, is the experiments table in
// cmd/rspqbench/main.go). `go test -bench=. -benchmem` times them; the
// rspqbench command prints the full human-readable tables; end-to-end
// performance is the repo benchmark's job (bench/, BENCHMARK.json).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/psitr"
	"repro/internal/reduction"
	"repro/internal/rspq"
)

// BenchmarkShortestWalk measures the product-BFS RPQ search (the
// engine under every walk-based solver) on warm frozen graphs. The
// witness path is the only allocation per found query.
func BenchmarkShortestWalk(b *testing.B) {
	b.ReportAllocs()
	d, err := automaton.MinDFAFromPattern("a*b(a|b|c)*")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 400, 1600} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n))
		g.Freeze()
		d.Rev()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				rspq.ShortestWalk(g, d, rng.Intn(n), rng.Intn(n))
			}
		})
	}
}

// BenchmarkExistsWalk is the boolean variant: no witness, so warm
// queries must be allocation-free.
func BenchmarkExistsWalk(b *testing.B) {
	b.ReportAllocs()
	d, err := automaton.MinDFAFromPattern("a*b(a|b|c)*")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 400, 1600} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n))
		g.Freeze()
		d.Rev()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				rspq.ExistsWalk(g, d, rng.Intn(n), rng.Intn(n))
			}
		})
	}
}

// BenchmarkE1Classify classifies the full paper corpus (Theorem 2 + 5).
func BenchmarkE1Classify(b *testing.B) {
	b.ReportAllocs()
	entries := catalog.All()
	dfas := make([]*automaton.DFA, len(entries))
	for i, e := range entries {
		d, err := automaton.MinDFAFromPattern(e.Pattern)
		if err != nil {
			b.Fatal(err)
		}
		dfas[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dfas {
			core.Classify(d, core.EdgeLabeled, nil)
			core.Classify(d, core.VertexLabeled, nil)
		}
	}
}

// BenchmarkE2TractableScaling runs the summary solver on growing random
// graphs for the Example 1 language.
func BenchmarkE2TractableScaling(b *testing.B) {
	b.ReportAllocs()
	s, err := rspq.NewSolver("a*(bb+|())c*")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 400, 1600} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				rspq.SolvePsitr(g, s.Expr, rng.Intn(n), rng.Intn(n), false)
			}
		})
	}
}

// BenchmarkE3Reduction measures baseline search work on Lemma 5
// instances (the NP side).
func BenchmarkE3Reduction(b *testing.B) {
	b.ReportAllocs()
	d, err := automaton.MinDFAFromPattern("a*b(cc)*d")
	if err != nil {
		b.Fatal(err)
	}
	min := d.Minimize()
	w, err := core.ExtractHardnessWitness(min, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{6, 9, 12} {
		g := graph.Random(n, []byte{'z'}, 0.3, int64(n))
		inst, err := reduction.FromVDP(reduction.VDPInstance{G: g, X1: 0, Y1: 1, X2: 2, Y2: 3}, w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vdp=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rspq.Baseline(inst.G, min, inst.X, inst.Y, nil)
			}
		})
	}
}

// BenchmarkE4SummaryWalkthrough solves the Example 2 instance.
func BenchmarkE4SummaryWalkthrough(b *testing.B) {
	b.ReportAllocs()
	s, err := rspq.NewSolver("a(c{2,}|())(a|b)*(ac)?a*")
	if err != nil {
		b.Fatal(err)
	}
	g, x, y := graph.LabeledPath("accccababacaa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := rspq.SolvePsitr(g, s.Expr, x, y, false); !res.Found {
			b.Fatal("walkthrough must succeed")
		}
	}
}

// BenchmarkE5Naive runs the three algorithms on the Figure 4 family.
func BenchmarkE5Naive(b *testing.B) {
	b.ReportAllocs()
	d, _ := automaton.MinDFAFromPattern("a*(bb+|())c*")
	s, _ := rspq.NewSolver("a*(bb+|())c*")
	f := graph.NewFigure4(8)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rspq.Naive(f.G, d, f.X0, f.Y2k)
		}
	})
	b.Run("summary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rspq.SolvePsitr(f.G, s.Expr, f.X0, f.Y2k, false)
		}
	})
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rspq.Baseline(f.G, d, f.X0, f.Y2k, nil)
		}
	})
}

// BenchmarkE6Vlg compares (ab)* on vertex-labeled graphs (polynomial)
// with the edge-labeled baseline.
func BenchmarkE6Vlg(b *testing.B) {
	b.ReportAllocs()
	s, _ := rspq.NewSolver("(ab)*")
	vg := graph.RandomVGraph(300, []byte{'a', 'b'}, 0.02, 5)
	b.Run("vlg-walk", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			rspq.VlgSolve(vg, s.Min, s.Expr, rng.Intn(300), rng.Intn(300))
		}
	})
	ge := graph.Random(40, []byte{'a', 'b'}, 0.12, 6)
	b.Run("edge-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rspq.Baseline(ge, s.Min, 0, 39, nil)
		}
	})
}

// BenchmarkE7Recognition measures trC testing for DFA vs NFA input.
func BenchmarkE7Recognition(b *testing.B) {
	b.ReportAllocs()
	d, _ := automaton.MinDFAFromPattern("a{1,16}b*")
	b.Run("dfa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.TrCFromDFA(d)
		}
	})
	r := automaton.MustParseRegex("(a|b)*a(a|b){4}")
	b.Run("nfa-blowup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.TrCFromRegex(r)
		}
	})
}

// BenchmarkE8ColorCoding measures the 2^{O(k)} growth of Theorem 7.
func BenchmarkE8ColorCoding(b *testing.B) {
	b.ReportAllocs()
	d, _ := automaton.MinDFAFromPattern("a*ba*")
	g := graph.RandomRegular(60, []byte{'a', 'b'}, 3, 17)
	for _, k := range []int{3, 6, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rspq.ColorCoding(g, d, 0, 59, k, rspq.ColorCodingOptions{Seed: 9, Trials: 50})
			}
		})
	}
}

// BenchmarkE9DAG measures polynomial combined complexity on DAGs.
func BenchmarkE9DAG(b *testing.B) {
	b.ReportAllocs()
	d, _ := automaton.MinDFAFromPattern("(a|b)*a(a|b)a(a|b)*")
	for _, shape := range [][2]int{{10, 10}, {20, 20}} {
		dag := graph.LayeredDAG(shape[0], shape[1], 3, []byte{'a', 'b'}, 5)
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rspq.DAG(dag, d, 0, dag.NumVertices()-1)
			}
		})
	}
}

// BenchmarkE10Reachability runs the Lemma 17 reduction pipeline.
func BenchmarkE10Reachability(b *testing.B) {
	b.ReportAllocs()
	d, _ := automaton.MinDFAFromPattern("a*(bb+|())c*")
	min := d.Minimize()
	g := graph.Random(30, []byte{'z'}, 0.08, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := reduction.FromReachability(g, 0, 29, min)
		if err != nil {
			b.Fatal(err)
		}
		rspq.Baseline(inst.G, min, inst.X, inst.Y, nil)
	}
}

// BenchmarkE11Psitr measures normalization + verification round trips.
func BenchmarkE11Psitr(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(8))
	exprs := make([]*psitr.Expr, 32)
	for i := range exprs {
		exprs[i] = psitr.RandomExpr(rng, []byte{'a', 'b'}, 2, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := exprs[i%len(exprs)]
		if _, err := psitr.FromRegex(e.ToRegex()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Subword compares the trC(0) fast path with the general
// summary solver on a*c*.
func BenchmarkE12Subword(b *testing.B) {
	b.ReportAllocs()
	s, _ := rspq.NewSolver("a*c*")
	g := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 12)
	b.Run("subword-walk", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < b.N; i++ {
			rspq.Subword(g, s.Min, rng.Intn(400), rng.Intn(400))
		}
	})
	b.Run("summary", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < b.N; i++ {
			rspq.SolvePsitr(g, s.Expr, rng.Intn(400), rng.Intn(400), false)
		}
	})
}

// batchWorkload builds the grouped-by-target pair set the batch engine
// is designed for: `targets` distinct targets, `sources` sources each.
func batchWorkload(n, targets, sources int, seed int64) []rspq.Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]rspq.Pair, 0, targets*sources)
	for t := 0; t < targets; t++ {
		y := rng.Intn(n)
		for s := 0; s < sources; s++ {
			pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
		}
	}
	return pairs
}

// BenchmarkBatch compares the batched engine (shared per-target tables
// + worker pool) against the equivalent per-query Solve loop, per
// dispatcher tier. One benchmark op answers the whole workload.
func BenchmarkBatch(b *testing.B) {
	cases := []struct {
		name    string
		pattern string
		g       *graph.Graph
	}{
		{"summary/n=400", "a*(bb+|())c*", graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)},
		{"subword/n=400", "a*c*", graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 12)},
		{"baseline/n=400", "a*bba*", graph.Random(400, []byte{'a', 'b'}, 0.006, 21)},
		{"dag/24x20", "(a|b)*a(a|b)*", graph.LayeredDAG(24, 20, 3, []byte{'a', 'b'}, 5)},
	}
	for _, c := range cases {
		s, err := rspq.NewSolver(c.pattern)
		if err != nil {
			b.Fatal(err)
		}
		bs := rspq.NewBatchSolver(s, c.g)
		pairs := batchWorkload(c.g.NumVertices(), 8, 32, 7)
		b.Run(c.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs.Solve(pairs)
			}
		})
		b.Run(c.name+"/batch-1worker", func(b *testing.B) {
			b.ReportAllocs()
			one := rspq.NewBatchSolver(s, c.g).SetWorkers(1)
			for i := 0; i < b.N; i++ {
				one.Solve(pairs)
			}
		})
		b.Run(c.name+"/perquery", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pq := range pairs {
					s.Solve(c.g, pq.X, pq.Y)
				}
			}
		})
	}
}

// BenchmarkEngineHot measures the serving engine on a hot workload —
// repeated queries over a few (language, y) targets — against the cold
// per-query path. "engine" serves from both cache tiers; "tables-only"
// disables the result cache so every op replays a search over a cached
// pruning table; "cold" is the per-query Solve loop recomputing the
// table each time.
func BenchmarkEngineHot(b *testing.B) {
	cases := []struct {
		name    string
		pattern string
		g       *graph.Graph
	}{
		{"summary/n=400", "a*(bb+|())c*", graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)},
		{"baseline/n=400", "a*bba*", graph.Random(400, []byte{'a', 'b'}, 0.006, 21)},
	}
	for _, c := range cases {
		s, err := rspq.NewSolver(c.pattern)
		if err != nil {
			b.Fatal(err)
		}
		n := c.g.NumVertices()
		pairs := batchWorkload(n, 4, 16, 7) // 64 hot pairs over 4 targets
		eng := rspq.NewEngine(s, c.g, rspq.EngineConfig{})
		tablesOnly := rspq.NewEngine(s, c.g, rspq.EngineConfig{ResultBytes: -1})
		b.Run(c.name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pq := pairs[i%len(pairs)]
				eng.Solve(pq.X, pq.Y)
			}
			if st := eng.Stats(); st.Results.Hits == 0 && b.N > len(pairs) {
				b.Fatal("hot workload produced no result-cache hits")
			}
		})
		b.Run(c.name+"/tables-only", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pq := pairs[i%len(pairs)]
				tablesOnly.Solve(pq.X, pq.Y)
			}
		})
		b.Run(c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pq := pairs[i%len(pairs)]
				s.Solve(c.g, pq.X, pq.Y)
			}
		})
	}
}

// BenchmarkBatchExists measures the existence-only fast path against
// full witness batches on the walk-reduction tiers, where each source
// collapses to one O(1) table lookup.
func BenchmarkBatchExists(b *testing.B) {
	cases := []struct {
		name    string
		pattern string
		g       *graph.Graph
	}{
		{"subword/n=400", "a*c*", graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 12)},
		{"dag/24x20", "(a|b)*a(a|b)*", graph.LayeredDAG(24, 20, 3, []byte{'a', 'b'}, 5)},
	}
	for _, c := range cases {
		s, err := rspq.NewSolver(c.pattern)
		if err != nil {
			b.Fatal(err)
		}
		bs := rspq.NewBatchSolver(s, c.g)
		pairs := batchWorkload(c.g.NumVertices(), 8, 32, 7)
		b.Run(c.name+"/exists", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs.SolveExists(pairs)
			}
		})
		b.Run(c.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs.Solve(pairs)
			}
		})
	}
}

// BenchmarkShardedBFS measures the tentpole: the frontier-exchange
// product BFS across snapshot partition sizes, on a 1M-edge generated
// graph (120k under -short so the CI bench smoke stays quick). The
// workload is a grouped existence batch over two hot targets of the
// flooding language (a|b|c)* — the shape where each group's backward
// BFS dominates and per-target batching alone yields no parallelism,
// so all speedup must come from the partition: locality on one core
// (per-shard state and outbox streams replace whole-graph random
// access), plus min(K, GOMAXPROCS)-way parallel expansion on multicore
// hardware. "unsharded" is the one-shard exchange, swept inline on the
// caller's goroutine.
func BenchmarkShardedBFS(b *testing.B) {
	edges := 1_000_000
	if testing.Short() {
		edges = 120_000
	}
	g, _ := graph.StreamingWorkload(edges, 0, 91)
	s, err := rspq.NewSolver("(a|b|c)*")
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(17))
	pairs := make([]rspq.Pair, 0, 64)
	for t := 0; t < 2; t++ {
		y := rng.Intn(n)
		for i := 0; i < 32; i++ {
			pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
		}
	}
	// The driver dimension pits the packed ≤64-state sweep against the
	// id-list sweep per partition size.
	drivers := []struct {
		name string
		bits bool
	}{{"driver=packed", true}, {"driver=idlist", false}}
	for _, k := range []int{0, 4, 8, 16} {
		kname := fmt.Sprintf("K=%d", k)
		if k == 0 {
			kname = "unsharded"
		}
		for _, d := range drivers {
			b.Run(kname+"/"+d.name, func(b *testing.B) {
				rspq.SetBitParallel(d.bits)
				defer rspq.SetBitParallel(true)
				b.ReportAllocs()
				g.SetShards(k)
				s.Warm(g)
				bs := rspq.NewBatchSolver(s, g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bs.SolveExists(pairs)
				}
			})
		}
	}
}

// BenchmarkFreeze measures the streaming-mutation refreeze: a ~1% edge
// delta applied to a frozen 100k-edge graph, refrozen either through
// the incremental delta merge (graph/delta.go) or from scratch — the
// cold first Freeze of a fresh graph holding the same edges. The
// incremental path must stay ≥5× faster.
func BenchmarkFreeze(b *testing.B) {
	const edges = 100_000
	b.Run("incremental/m=100k-1%", func(b *testing.B) {
		b.ReportAllocs()
		g, muts := graph.StreamingWorkload(edges, 0.01, 42)
		g.Freeze()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			graph.FlipEdges(g, muts)
			b.StartTimer()
			g.Freeze()
		}
	})
	b.Run("full/m=100k-1%", func(b *testing.B) {
		b.ReportAllocs()
		g, muts := graph.StreamingWorkload(edges, 0.01, 42)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			graph.FlipEdges(g, muts)
			fresh := graph.New(g.NumVertices())
			for v := 0; v < g.NumVertices(); v++ {
				for _, e := range g.OutEdges(v) {
					fresh.AddEdge(e.From, e.Label, e.To)
				}
			}
			b.StartTimer()
			fresh.Freeze()
		}
	})
}

// BenchmarkPinViewChurn measures what a write costs the next read: one
// 320-flip batch plus the PinView that follows it, with 1k, 4k and 16k
// edges already pending on a 100k-vertex / 300k-edge base. Half of the
// flips remove a base edge, half add a fresh one, and every other
// iteration flips the same batch back, so the pending delta stays
// within 320 of its row's size. ns/op and B/op grow with the pending
// size only as far as the row blocks a batch touches are already full.
func BenchmarkPinViewChurn(b *testing.B) {
	const batch = 320
	for _, pending := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("pending=%dk/batch=%d", pending/1000, batch), func(b *testing.B) {
			b.ReportAllocs()
			g, muts := graph.StreamingWorkload(300_000, float64(pending+batch)/300_000, 11)
			rng := rand.New(rand.NewSource(12))
			for i := 0; i < len(muts); i += 2 { // every other flip removes a base edge
				for {
					if es := g.OutEdges(rng.Intn(g.NumVertices())); len(es) > 0 {
						muts[i] = es[rng.Intn(len(es))]
						break
					}
				}
			}
			g.Freeze()
			g.PinView()
			graph.FlipEdges(g, muts[batch:])
			g.PinView()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.FlipEdges(g, muts[:batch])
				g.PinView()
			}
		})
	}
}

// BenchmarkEngineMutate measures the serving engine under a
// mutate-heavy workload: every iteration applies a one-edge delta and
// immediately queries, so each query pins a fresh overlay view (and the
// watermark compaction merges the delta now and then) — the cost stays
// proportional to the delta, never a full O(V+E) rebuild.
func BenchmarkEngineMutate(b *testing.B) {
	b.Run("incremental/m=30k", func(b *testing.B) {
		b.ReportAllocs()
		g, muts := graph.StreamingWorkload(30_000, 0.003, 9)
		s, err := rspq.NewSolver("a*c*")
		if err != nil {
			b.Fatal(err)
		}
		eng := rspq.NewEngine(s, g, rspq.EngineConfig{})
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			graph.FlipEdges(g, muts[i%len(muts):i%len(muts)+1])
			eng.Solve(rng.Intn(n), rng.Intn(n))
		}
	})
}

// BenchmarkCompile measures end-to-end language compilation (parse,
// determinize, minimize, classify, extract witness, normalize).
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile("a*(bb+|())c*"); err != nil {
			b.Fatal(err)
		}
		if _, err := Compile("(aa)*"); err != nil {
			b.Fatal(err)
		}
	}
}
