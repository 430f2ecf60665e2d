package trichotomy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/rspq"
)

// BenchmarkShortestWalk measures the RPQ search under every per-query
// walk tier — the backward product sweep from y, stopped once x is
// answered, plus the walk read off its distances — on warm frozen
// graphs. The witness path is the only allocation per found query
// (TestShortestWalkAllocGuard).
func BenchmarkShortestWalk(b *testing.B) {
	b.ReportAllocs()
	d, err := automaton.MinDFAFromPattern("a*b(a|b|c)*")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 400, 1600} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n))
		g.Freeze()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				rspq.ShortestWalk(g, d, rng.Intn(n), rng.Intn(n))
			}
		})
	}
}

// BenchmarkExistsWalk times the boolean reference search, a forward
// product BFS: no witness, so warm queries must be allocation-free.
func BenchmarkExistsWalk(b *testing.B) {
	b.ReportAllocs()
	d, err := automaton.MinDFAFromPattern("a*b(a|b|c)*")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 400, 1600} {
		g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, int64(n))
		g.Freeze()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				rspq.ExistsWalk(g, d, rng.Intn(n), rng.Intn(n))
			}
		})
	}
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
// full witness batches on the subword tier, where each source collapses
// to one O(1) table lookup, and on a baseline-tier language over a DAG,
// where the walk-first step answers every source.
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

// BenchmarkFloodSweep measures the backward product sweep at three lane
// widths — m=1 (a|b|c)*, m=67 (a*b*){33} and m=131 (a*b*){65}, one, two
// and three words per vertex — on one 1M-edge generated graph (120k under
// -short so the CI bench smoke stays quick). The workload is a grouped
// existence batch over two hot targets: the shape where each group's
// sweep dominates and the batch's two groups are its only parallelism.
// At m=1 a second row answers the same batch with witnesses (Solve):
// the sweep with links, which writes a distance per reached state and
// reads each walk off the distances. A third answers the batch's found
// pairs one at a time (exists1), each a group of one — what Engine.Exists
// runs on a miss — whose sweep stops at the admission that answers its
// source; an unreachable source's sweep runs to the end, as the m=1 row
// already times.
func BenchmarkFloodSweep(b *testing.B) {
	edges := 1_000_000
	if testing.Short() {
		edges = 120_000
	}
	g, _ := graph.StreamingWorkload(edges, 0, 91)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(17))
	pairs := make([]rspq.Pair, 0, 64)
	for t := 0; t < 2; t++ {
		y := rng.Intn(n)
		for i := 0; i < 32; i++ {
			pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
		}
	}
	for _, pattern := range []string{"(a|b|c)*", "(a*b*){33}", "(a*b*){65}"} {
		s, err := rspq.NewSolver(pattern)
		if err != nil {
			b.Fatal(err)
		}
		s.Warm(g)
		bs := rspq.NewBatchSolver(s, g)
		b.Run(fmt.Sprintf("m=%d", s.Min.NumStates), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs.SolveExists(pairs)
			}
		})
		if s.Min.NumStates == 1 {
			b.Run("m=1,solve", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bs.Solve(pairs)
				}
			})
			var found []rspq.Pair
			for i, ok := range bs.SolveExists(pairs) {
				if ok {
					found = append(found, pairs[i])
				}
			}
			b.Run("m=1,exists1", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i % len(found)
					bs.SolveExists(found[j : j+1])
				}
			})
		}
	}
}

// BenchmarkFreeze measures the streaming-mutation refreeze: a ~1% edge
// delta applied to a frozen 100k-edge graph, refrozen either through
// the incremental delta merge (graph/delta.go) or from scratch — the
// cold first Freeze of a fresh graph holding the same edges. The
// incremental path must stay ≥5× faster. full-after-removals is the
// rebuild a delta past the merge limit forces: every third edge of the
// frozen flood shape (buildShapes) removed, then Freeze, which reads the
// base minus the tombstones.
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
	b.Run("full-after-removals", func(b *testing.B) {
		sh := buildShapes()[0]
		es := graph.RandomOutRegular(sh.n, sh.labels, sh.outDeg, 1).Edges()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := graph.New(sh.n)
			for _, e := range es {
				g.AddEdge(e.From, e.Label, e.To)
			}
			g.Freeze()
			for j := 0; j < len(es); j += 3 {
				g.RemoveEdge(es[j].From, es[j].Label, es[j].To)
			}
			b.StartTimer()
			g.Freeze()
		}
	})
}

// buildShapes are the graphs the load benchmarks build: the flood shape
// (12.5k vertices, 1M edges, {a,b}: the flood-kernel workload's graph)
// and the churn shape (111k vertices, 333k edges, {a,b,c}: the
// serve-churn workload's). -short shrinks both to about 100k edges.
func buildShapes() []struct {
	name      string
	n, outDeg int
	labels    []byte
} {
	if testing.Short() {
		return []struct {
			name      string
			n, outDeg int
			labels    []byte
		}{
			{"flood/n=1.25k,m=100k", 1_250, 80, []byte("ab")},
			{"churn/n=33.3k,m=100k", 33_300, 3, []byte("abc")},
		}
	}
	return []struct {
		name      string
		n, outDeg int
		labels    []byte
	}{
		{"flood/n=12.5k,m=1M", 12_500, 80, []byte("ab")},
		{"churn/n=111k,m=333k", 111_000, 3, []byte("abc")},
	}
}

// BenchmarkBuild measures loading a graph: an AddEdge loop over its
// edges in (from, to, label) order, as the benchmark harness builds its
// graphs, plus the first Freeze.
func BenchmarkBuild(b *testing.B) {
	for _, sh := range buildShapes() {
		b.Run(sh.name, func(b *testing.B) {
			g := graph.RandomOutRegular(sh.n, sh.labels, sh.outDeg, 1)
			es := g.Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := graph.New(sh.n)
				for _, e := range es {
					fresh.AddEdge(e.From, e.Label, e.To)
				}
				fresh.Freeze()
			}
		})
	}
}

// BenchmarkReadText measures a cold load from text: ReadText of the
// churn shape as WriteText writes it, plus the first Freeze — what
// rspqd -graph and rspq -graph run before their first query. Its
// allocs/op do not grow with the line count (TestReadTextAllocs).
func BenchmarkReadText(b *testing.B) {
	n, outDeg := 111_000, 3
	if testing.Short() {
		n = 33_300
	}
	var buf bytes.Buffer
	if err := graph.RandomOutRegular(n, []byte("abc"), outDeg, 1).WriteText(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("churn/n=%d,m=%d", n, n*outDeg), func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			g, err := graph.ReadText(bytes.NewReader(buf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			g.Freeze()
		}
	})
}

// BenchmarkFlipEdges measures what one flip costs on a frozen graph:
// each op is a FlipEdges call on one edge, drawn from a list of 64k
// whose even entries are base edges (removed) and odd entries random
// edges (almost all absent, added). The list is cycled, so every second
// pass undoes the one before and the pending delta stays within 64k
// edges. Two shapes: flood (12.5k vertices, 1M edges, {a,b}: the graph
// of the flood-kernel workload's write segment) and churn (111k
// vertices, 333k edges, {a,b,c}).
func BenchmarkFlipEdges(b *testing.B) {
	for _, sh := range []struct {
		name      string
		n, outDeg int
		labels    []byte
	}{
		{"flood/n=12.5k,m=1M", 12_500, 80, []byte("ab")},
		{"churn/n=111k,m=333k", 111_000, 3, []byte("abc")},
	} {
		b.Run(sh.name, func(b *testing.B) {
			g := graph.RandomOutRegular(sh.n, sh.labels, sh.outDeg, 1)
			g.Freeze()
			rng := rand.New(rand.NewSource(2))
			muts := make([]graph.Edge, 1<<16)
			for i := range muts {
				if i%2 == 0 {
					es := g.OutEdges(rng.Intn(sh.n))
					muts[i] = es[rng.Intn(len(es))]
				} else {
					muts[i] = graph.Edge{From: rng.Intn(sh.n), Label: sh.labels[rng.Intn(len(sh.labels))], To: rng.Intn(sh.n)}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(muts)
				graph.FlipEdges(g, muts[j:j+1])
			}
		})
	}
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

// BenchmarkWalkFirst times the searching tiers on pairs their shortest
// walk answers: Solve and Shortest of the NP-complete contains-b and the
// summary-tier Example 2 on a 3-regular 400-vertex graph, over the probe
// pairs x = 37i mod n, y = (91i+5) mod n, i < 40. Each query is one
// backward sweep stopped at its source and one walk read off it; before
// the walk came first, contains-b's Solve backtracked for seconds on
// some of these pairs and Example 2's Shortest enumerated every Ψtr
// sequence's summaries.
func BenchmarkWalkFirst(b *testing.B) {
	const n = 400
	g := graph.RandomRegular(n, []byte{'a', 'b', 'c'}, 3, 7)
	g.Freeze()
	pairs := make([][2]int, 40)
	for i := range pairs {
		pairs[i] = [2]int{37 * i % n, (91*i + 5) % n}
	}
	for _, c := range []struct{ name, pattern string }{
		{"contains-b", "(a|b)*b(a|b)*"},
		{"example2", "a(c{2,}|())(a|b)*(ac)?a*"},
	} {
		s, err := rspq.NewSolver(c.pattern)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct {
			name  string
			solve func(*graph.Graph, int, int) rspq.Result
		}{{"Solve", s.Solve}, {"Shortest", s.Shortest}} {
			b.Run(c.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					q.solve(g, p[0], p[1])
				}
			})
		}
	}
}
