package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	trichotomy "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rspq"
)

// paper-small: the library API on one goroutine, the way the paper's
// examples and cmd/rspq / trcheck users drive it. All 17 catalog
// languages over n≈400 graphs; fixed per-query overhead (compile,
// Solver dispatch, PinView, arena) does most of the work and the
// sweeps almost none.
//
// Each 256-op block is 255 warm Language.Solve / Shortest calls plus
// one cold trichotomy.Compile + Class + first Solve; every 16th block
// is preceded by a write: a burst of 16 four-edge FlipEdges calls on
// the two writable graphs, timed with one clock pair (a single 3 µs
// call timed alone read 10 % apart between identical runs).
//
// The NP-complete languages and the 7-state Example 2 run only on the
// Figure-4 graph and the layered DAG: on the cyclic random graphs their
// exact search is exponential with a heavy tail (seconds, and hangs, on
// single pairs), which no fixed-work benchmark can hold steady and no
// library call can abort. Those two graphs are never written to, so
// they stay bounded. a+b+ runs only on the DAG: on cyclic graphs the
// summary tier answers it wrongly (README, "Known defect"), and a
// workload may hold no op that fails.
//
// The writes go to copies of the two cyclic random graphs that only the
// finite and the subword-closed languages query. The summary tier's
// cost depends so strongly on the graph's shape that toggling 5 % of a
// 1200-edge graph's edges moved a round's p95 between 14 and 84 µs;
// the walk and finite tiers pay for a write what every tier pays — a
// new epoch, an overlay pin, in time a freeze — without that swing.
type paperSmall struct {
	seed          int64
	ladderSamples int
	langs         []catalog.Entry
	lists         []edgeList // graphs as generated
	mutable       []int      // indices of the cyclic random graphs
	combos        []smallCombo
	rounds        [][]smallOp // rounds[r]: blocks of blockSize ops
	pools         [][]graph.Edge
	writes        [][]smallWrite // writes[r][k] precedes block 16k of round r
	sampled       []map[int]bool // op indices of round r cross-checked against the oracle
	dig           string

	graphs   []*graph.Graph
	compiled []*trichotomy.Language
	solvers  []*rspq.Solver // bench-side, for checking only
	results  []rspq.Result
	check    checker
	e        *env
}

type smallCombo struct{ lang, graph uint8 }

type smallOp struct {
	lang, graph uint8
	shortest    bool
	x, y        uint16
}

// smallWrite is one write burst: calls[i] is flipped on graphs[i].
type smallWrite struct {
	graphs []int
	calls  [][]graph.Edge
}

// The two cyclic random graphs are the fixtures rspqbench has used since
// PR 1 (its summary/n=400 and batch-baseline rows), not a function of
// -seed: the summary tier's cost on a 400-vertex random graph swings
// 8× with the graph drawn (22–178 µs a query over four seeds), which
// would bury every other layer's share of this workload under seed
// noise. The pairs asked on them, the DAG and the writes do come from
// -seed.
const (
	smallRegularSeed = 400
	smallRandomSeed  = 21
)

const (
	smallBlocksPerRound = 1600 // ≈ 2 s of timed reads per round on the reference box
	smallWriteEvery     = 16
	smallWriteBurst     = 16 // FlipEdges calls per write
	smallFlipEdges      = 4  // edges per call
)

func (w *paperSmall) generate(seed int64, scale float64, e *env) error {
	w.seed, w.e = seed, e
	w.langs = catalog.All()
	abc, ab := []byte("abc"), []byte("ab")
	regular := listOf(graph.RandomRegular(400, abc, 3, smallRegularSeed))
	random := listOf(graph.Random(400, ab, 0.006, smallRandomSeed))
	const figure4, dag, regularW, randomW = 2, 3, 4, 5
	w.lists = []edgeList{regular, random,
		listOf(graph.NewFigure4(8).G),
		listOf(graph.LayeredDAG(20, 20, 3, abc, fixtureSeed)),
		regular, random, // the copies the writes go to
	}
	w.mutable = []int{regularW, randomW}
	for li, l := range w.langs {
		s, err := rspq.NewSolver(l.Pattern)
		if err != nil {
			return fmt.Errorf("catalog language %s: %w", l.Name, err)
		}
		w.solvers = append(w.solvers, s)
		for gi := range w.lists {
			switch {
			case l.Name == "a-plus-b-plus" && gi != dag:
			case (l.Class == core.NPComplete || l.Name == "example2") && gi != figure4 && gi != dag:
			case (gi == regularW || gi == randomW) && !s.Classification.Finite && !s.SubwordClosed:
			default:
				w.combos = append(w.combos, smallCombo{uint8(li), uint8(gi)})
			}
		}
	}

	// Planting needs the live graphs and DFAs; build bench-side copies.
	graphs := make([]*graph.Graph, len(w.lists))
	for i, l := range w.lists {
		graphs[i] = l.build()
	}
	solvers := w.solvers

	// Write pools: per mutable graph 32 present and 32 absent edges, so
	// flipping pool entries keeps the graph within base ± pool and every
	// round sees the same kind of graph.
	rng := newRNG(fixtureSeed, 10)
	w.pools = make([][]graph.Edge, len(w.lists))
	for _, gi := range w.mutable {
		l := w.lists[gi]
		labels := "abc"
		if gi == randomW {
			labels = "ab"
		}
		w.pools[gi] = flipPool(l, labels, 64, rng)
	}

	blocks := scaled(smallBlocksPerRound, scale, 4)
	w.ladderSamples = scaled(96, scale, 16)
	d := newDigester()
	for _, l := range w.lists {
		d.edges(l)
	}
	for r := 0; r <= timedRounds; r++ {
		rng := newRNG(seed, 100+uint64(r))
		// Off the Go heap, and never unmapped: the op lists are 20 MB, and
		// on the heap they were all of its live data. The collector then
		// let the heap grow to twice that before each cycle, peak_rss_mb
		// read 57–70 MiB between identical runs depending on where a
		// cycle happened to start, and the program's own few MB were lost
		// in it. A user of the library holds no such list.
		ops, _, err := offHeap[smallOp](blocks * blockSize)
		if err != nil {
			return err
		}
		for i := range ops {
			c := w.combos[rng.Intn(len(w.combos))]
			if i%blockSize == blockSize-1 {
				c = w.coldCombo(rng)
			}
			op := smallOp{lang: c.lang, graph: c.graph, shortest: rng.Intn(2) == 1}
			g := graphs[c.graph]
			planted := false
			if rng.Intn(2) == 0 {
				if x, y, ok := plantPair(g, solvers[c.lang].Min, 8, rng); ok {
					op.x, op.y, planted = uint16(x), uint16(y), true
				}
			}
			if !planted {
				op.x, op.y = uint16(rng.Intn(g.NumVertices())), uint16(rng.Intn(g.NumVertices()))
			}
			ops[i] = op
			sh := 0
			if op.shortest {
				sh = 1
			}
			d.ints(int(op.lang), int(op.graph), sh, int(op.x), int(op.y))
		}
		w.rounds = append(w.rounds, ops)
		var ws []smallWrite
		for k := 0; k*smallWriteEvery < blocks; k++ {
			var wr smallWrite
			for c := 0; c < smallWriteBurst; c++ {
				gi := w.mutable[c%len(w.mutable)]
				var call []graph.Edge
				for j := 0; j < smallFlipEdges; j++ {
					call = append(call, w.pools[gi][rng.Intn(len(w.pools[gi]))])
				}
				wr.graphs = append(wr.graphs, gi)
				wr.calls = append(wr.calls, call)
				d.edges(edgeList{n: gi, edges: call})
			}
			ws = append(ws, wr)
		}
		w.writes = append(w.writes, ws)
		w.sampled = append(w.sampled, sampleIndices(len(ops), 256/timedRounds+1, rng))
	}
	w.dig = d.sum()
	w.results = make([]rspq.Result, smallWriteEvery*blockSize)
	return nil
}

// coldCombo draws the (language, graph) of a block's cold op. Compile
// times fall in three bands: tens to hundreds of µs for most languages,
// 2.7 ms for a*bc* (the NP-complete foil of Example 1; nearly all of it
// the hardness-witness search), 34 ms for Figure 1's a*b(cc)*d. One
// block in eight compiles a*bc*, so the slow band holds the top 12.5 %
// of the block means and the p95 sits 7.5 points inside it; the rest
// draw uniformly from the other languages. Figure 1 is never compiled
// in a timed block — at its catalog share it would be a third mode
// right at the p95 boundary, and 26 ± 5 such blocks a round made
// reads_per_s swing 20 % between rounds; its compile is the per-layer
// core.witness_us.
func (w *paperSmall) coldCombo(rng *rand.Rand) smallCombo {
	slow := rng.Intn(8) == 0
	for {
		c := w.combos[rng.Intn(len(w.combos))]
		switch name := w.langs[c.lang].Name; {
		case name == "figure1":
		case (name == "a-b-c") == slow:
			return c
		}
	}
}

// sampleIndices picks k distinct indices below n.
func sampleIndices(n, k int, rng *rand.Rand) map[int]bool {
	if k > n {
		k = n
	}
	out := make(map[int]bool, k)
	for len(out) < k {
		out[rng.Intn(n)] = true
	}
	return out
}

func (w *paperSmall) digest() string   { return w.dig }
func (w *paperSmall) holderPID() int   { return os.Getpid() }
func (w *paperSmall) confined() bool   { return false }
func (w *paperSmall) checks() *checker { return &w.check }
func (w *paperSmall) tearDown()        { w.graphs, w.compiled = nil, nil }

// setUp builds the four graphs, compiles the 17 languages, warms every
// graph and answers — and verifies — one query per language.
func (w *paperSmall) setUp() error {
	w.graphs = make([]*graph.Graph, len(w.lists))
	for i, l := range w.lists {
		w.graphs[i] = l.build()
	}
	w.compiled = make([]*trichotomy.Language, len(w.langs))
	for i, l := range w.langs {
		lang, err := trichotomy.Compile(l.Pattern)
		if err != nil {
			return err
		}
		w.compiled[i] = lang
	}
	for _, g := range w.graphs {
		w.compiled[0].Warm(g)
	}
	seen := map[uint8]bool{}
	for _, op := range w.rounds[0] {
		if seen[op.lang] {
			continue
		}
		seen[op.lang] = true
		res := w.exec(op)
		if !rspq.VerifyWitness(res, w.graphs[op.graph], w.solvers[op.lang].Min, int(op.x), int(op.y)) {
			return fmt.Errorf("first answer of %s does not verify", w.langs[op.lang].Name)
		}
		if len(seen) == len(w.langs) {
			break
		}
	}
	return nil
}

func (w *paperSmall) exec(op smallOp) rspq.Result {
	l, g := w.compiled[op.lang], w.graphs[op.graph]
	if op.shortest {
		return l.Shortest(g, int(op.x), int(op.y))
	}
	return l.Solve(g, int(op.x), int(op.y))
}

// execCold is the cold op closing every block: compile, classify,
// first query.
func (w *paperSmall) execCold(op smallOp) rspq.Result {
	l, err := trichotomy.Compile(w.langs[op.lang].Pattern)
	if err != nil {
		return rspq.Result{}
	}
	_ = l.Class()
	return l.Solve(w.graphs[op.graph], int(op.x), int(op.y))
}

func (w *paperSmall) round(r int, rec *roundRec, sp *spanLog) error {
	ops := w.rounds[r]
	blocks := len(ops) / blockSize
	for b0 := 0; b0 < blocks; b0 += smallWriteEvery {
		b1 := min(b0+smallWriteEvery, blocks)
		wr := w.writes[r][b0/smallWriteEvery]
		c0 := selfCPU()
		t0 := time.Now()
		for i, call := range wr.calls {
			graph.FlipEdges(w.graphs[wr.graphs[i]], call)
		}
		dt := time.Since(t0)
		rec.writeLat = append(rec.writeLat, micros(dt)/smallWriteBurst)
		rec.writes += smallWriteBurst
		if sp != nil {
			sp.add("write.flip4x16", -1, int32(b0), t0, dt)
		}
		for b := b0; b < b1; b++ {
			blk := ops[b*blockSize : (b+1)*blockSize]
			out := w.results[(b-b0)*blockSize:]
			t0 := time.Now()
			for i, op := range blk[:blockSize-1] {
				out[i] = w.exec(op)
			}
			tc := time.Now() // read only by the traced round
			out[blockSize-1] = w.execCold(blk[blockSize-1])
			dt := time.Since(t0)
			rec.readLat = append(rec.readLat, micros(dt)/blockSize)
			rec.readWall += dt
			rec.reads += blockSize
			if sp != nil {
				id := sp.add("read.block256", -1, int32(b), t0, dt)
				sp.add("cold.compile_class_solve", id, int32(b), tc, t0.Add(dt).Sub(tc))
			}
		}
		rec.cpu += selfCPU() - c0
		// Untimed: every answer of the group is checked before the next
		// write can invalidate its witness.
		w.verify(r, b0, b1)
	}
	return nil
}

func (w *paperSmall) verify(r, b0, b1 int) {
	ops := w.rounds[r][b0*blockSize : b1*blockSize]
	for i, op := range ops {
		res := w.results[i]
		g, s := w.graphs[op.graph], w.solvers[op.lang]
		x, y := int(op.x), int(op.y)
		w.check.op()
		what := "paper-small " + w.langs[op.lang].Name
		w.check.witness(res, g, s, x, y, what)
		if w.sampled[r][b0*blockSize+i] {
			w.check.crossCheck(res.Found, res.Found, g, s, x, y, what, func() edgeList { return listOf(g) })
		}
		w.results[i] = rspq.Result{}
	}
}

// layers: the ladder over a sample of the ops, the language-side
// pipeline over all 17 patterns, graph probes on the random-regular
// graph, and an rspqd serving Example 1 on it for the HTTP rung.
func (w *paperSmall) layers(sp *spanLog, m map[string]float64) error {
	rng := newRNG(w.seed, 900)
	patterns := make([]string, len(w.langs))
	for i, l := range w.langs {
		patterns[i] = l.Pattern
	}
	graphs := make([]*graph.Graph, len(w.lists))
	for i, l := range w.lists {
		graphs[i] = l.build()
	}
	ops := w.rounds[1]
	var samples, onServer []sample
	ex1 := 0
	for i, l := range w.langs {
		if l.Name == "example1" {
			ex1 = i
		}
	}
	for len(samples) < w.ladderSamples {
		op := ops[rng.Intn(len(ops))]
		s := sample{graph: int(op.graph), lang: int(op.lang), x: int(op.x), y: int(op.y), shortest: op.shortest}
		samples = append(samples, s)
	}
	for _, op := range ops {
		if int(op.lang) == ex1 && op.graph == 0 && len(onServer) < 64 {
			onServer = append(onServer, sample{lang: ex1, x: int(op.x), y: int(op.y)})
		}
	}
	l, err := newLadder(sp, graphs, patterns, samples, w.seed)
	if err != nil {
		return err
	}
	l.inProcess(m)
	l.close()
	languageSide(patterns, m)
	graphProbes(w.lists[0], w.pools[0], m)
	cacheProbes(m)

	file := filepath.Join(w.e.work, "small-rr.txt")
	if err := w.lists[0].writeFile(file); err != nil {
		return err
	}
	return withServer(w.e, sp, m, onServer, nil, "-graph", file, "-pattern", patterns[ex1])
}
