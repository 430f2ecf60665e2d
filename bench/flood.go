package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	trichotomy "repro"
	"repro/internal/graph"
	"repro/internal/rspq"
)

// flood-kernel: the library API through Language.NewEngine with the
// default EngineConfig, on the shape where the backward product sweep
// is nearly all of a read: a dense 12.5k-vertex / 1M-edge {a,b} graph
// under the 11-state subword-closed language a*b*a*b*a*b*a*b*a*b*.
//
// Each round is a read segment on a clean (pass-through) snapshot —
// 75 % Engine.Exists, 25 % Engine.Solve, every target unseen so both
// caches miss — then a write segment of FlipEdges batches of 64 edges,
// then Engine.Compact. The median read is an existence sweep (the
// bit-parallel mark-only kernel), the p95 read a distance sweep plus
// witness walk, so each kernel family owns one metric; HTTP and cache
// work is nil.
type floodKernel struct {
	seed    int64
	e       *env
	list    edgeList
	pool    []graph.Edge
	rounds  [][]floodOp
	flips   [][][]graph.Edge // flips[r]: the write segment's batches
	sampled []map[int]bool
	dig     string

	g      *graph.Graph
	eng    *trichotomy.Engine
	solver *rspq.Solver // bench-side, for checking only
	found  []bool
	res    []rspq.Result
	check  checker

	before, after trichotomy.EngineStats // around the traced round
}

type floodOp struct {
	x, y  int32
	solve bool
}

const (
	floodPattern     = "a*b*a*b*a*b*a*b*a*b*"
	floodVertices    = 12_500
	floodEdges       = 1_000_000
	floodReads       = 640 // per round: 480 Exists + 160 Solve, 32 samples beyond the p95
	floodWarmupReads = 160
	floodBatches     = 800 // per write segment: 100 latency samples
	floodBatchEdges  = 64
	floodWriteBlock  = 8      // a 64-edge batch takes ~80 µs: batches are timed 8 to a clock pair
	floodPool        = 65_536 // edges the writes toggle
)

// graphSize scales a graph down for runs shorter than the default
// (smoke tests), keeping its average degree; at or above the default
// the graph is full size and only the op counts scale.
func graphSize(n, m int, scale float64) (int, int) {
	if scale >= 1 {
		return n, m
	}
	sm := max(int(float64(m)*scale), 4000)
	return max(int(float64(n)*float64(sm)/float64(m)), 50), sm
}

func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale+0.5), floor)
}

func (w *floodKernel) generate(seed int64, scale float64, e *env) error {
	w.seed, w.e = seed, e
	n, m := graphSize(floodVertices, floodEdges, scale)
	w.list = randomGraph(n, m, "ab", newRNG(fixtureSeed, 1))
	w.pool = flipPool(w.list, "ab", min(floodPool, m/4), newRNG(fixtureSeed, 2))
	s, err := rspq.NewSolver(floodPattern)
	if err != nil {
		return err
	}
	w.solver = s
	d := newDigester()
	d.edges(w.list)

	// Every read names a target no earlier read named, so neither the
	// table nor the result cache can answer it.
	targets := newRNG(seed, 2).Perm(n)
	next := 0
	reads, batches := scaled(floodReads, scale, 16), scaled(floodBatches, scale, floodWriteBlock)
	for r := 0; r <= timedRounds; r++ {
		rng := newRNG(seed, 100+uint64(r))
		k := reads
		if r == 0 {
			k = scaled(floodWarmupReads, scale, 8)
		}
		ops := make([]floodOp, k)
		for i := range ops {
			ops[i] = floodOp{x: int32(rng.Intn(n)), y: int32(targets[next%n]), solve: i%4 == 3}
			next++
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for _, op := range ops {
			sv := 0
			if op.solve {
				sv = 1
			}
			d.ints(int(op.x), int(op.y), sv)
		}
		w.rounds = append(w.rounds, ops)
		bs := make([][]graph.Edge, batches)
		for b := range bs {
			bs[b] = flipBatch(w.pool, floodBatchEdges, rng)
			d.edges(edgeList{edges: bs[b]})
		}
		w.flips = append(w.flips, bs)
		w.sampled = append(w.sampled, sampleIndices(len(ops), 256/timedRounds+1, rng))
	}
	w.dig = d.sum()
	w.found = make([]bool, reads)
	w.res = make([]rspq.Result, reads)
	return nil
}

func (w *floodKernel) digest() string   { return w.dig }
func (w *floodKernel) holderPID() int   { return os.Getpid() }
func (w *floodKernel) confined() bool   { return false }
func (w *floodKernel) checks() *checker { return &w.check }
func (w *floodKernel) tearDown()        { w.g, w.eng = nil, nil }

// setUp builds the graph, compiles the language, opens an engine with
// the default configuration and answers — and verifies — one Solve and
// one Exists.
func (w *floodKernel) setUp() error {
	w.g = w.list.build()
	lang, err := trichotomy.Compile(floodPattern)
	if err != nil {
		return err
	}
	w.eng = lang.NewEngine(w.g, trichotomy.EngineConfig{})
	op := w.rounds[0][0]
	x, y := int(op.x), int(op.y)
	res := w.eng.Solve(x, y)
	if !rspq.VerifyWitness(res, w.g, w.solver.Min, x, y) || res.Found != rspq.ExistsWalk(w.g, w.solver.Min, x, y) ||
		w.eng.Exists(y, x) != rspq.ExistsWalk(w.g, w.solver.Min, y, x) {
		return fmt.Errorf("first answer (%d,%d) does not verify", x, y)
	}
	return nil
}

func (w *floodKernel) round(r int, rec *roundRec, sp *spanLog) error {
	ops := w.rounds[r]
	if sp != nil {
		w.before = w.eng.Stats()
	}
	// Read segment.
	c0 := selfCPU()
	seg := time.Now()
	for i, op := range ops {
		t0 := time.Now()
		if op.solve {
			w.res[i] = w.eng.Solve(int(op.x), int(op.y))
		} else {
			w.found[i] = w.eng.Exists(int(op.x), int(op.y))
		}
		dt := time.Since(t0)
		rec.readLat = append(rec.readLat, micros(dt))
		if sp != nil {
			name := "read.exists"
			if op.solve {
				name = "read.solve"
			}
			sp.add(name, -1, int32(i), t0, dt)
		}
	}
	rec.readWall += time.Since(seg)
	rec.reads += len(ops)
	rec.cpu += selfCPU() - c0

	// Untimed: the graph has not changed since the reads, so it is the
	// oracle's graph too. On a subword-closed language a simple path
	// exists exactly when an L-labeled walk does.
	for i, op := range ops {
		x, y := int(op.x), int(op.y)
		w.check.op()
		found := w.found[i]
		if op.solve {
			found = w.res[i].Found
			w.check.witness(w.res[i], w.g, w.solver, x, y, "flood-kernel Solve")
			w.res[i] = rspq.Result{}
		}
		if w.sampled[r][i] {
			w.check.crossCheck(found, false, w.g, w.solver, x, y, "flood-kernel", func() edgeList { return listOf(w.g) })
		}
	}

	// Write segment, then the compaction that folds it in: both are cost
	// the writes caused, so both count towards CPU per op.
	c0 = selfCPU()
	bs := w.flips[r]
	for b := 0; b+floodWriteBlock <= len(bs); b += floodWriteBlock {
		t0 := time.Now()
		for _, batch := range bs[b : b+floodWriteBlock] {
			graph.FlipEdges(w.g, batch)
		}
		dt := time.Since(t0)
		rec.writeLat = append(rec.writeLat, micros(dt)/floodWriteBlock)
		rec.writes += floodWriteBlock
		if sp != nil {
			sp.add("write.flip64x8", -1, int32(b), t0, dt)
		}
	}
	t0 := time.Now()
	w.eng.Compact()
	if sp != nil {
		sp.add("compact", -1, -1, t0, time.Since(t0))
		w.after = w.eng.Stats()
	}
	rec.cpu += selfCPU() - c0
	return nil
}

// layers: the ladder over a sample of the traced round's reads on a
// bench-side copy of the graph, the engine counters of the traced round
// itself, and an rspqd serving the same graph for the HTTP rung.
func (w *floodKernel) layers(sp *spanLog, m map[string]float64) error {
	rng := newRNG(w.seed, 900)
	ops := w.rounds[2]
	var samples []sample
	for len(samples) < min(32, len(ops)) {
		op := ops[rng.Intn(len(ops))]
		samples = append(samples, sample{x: int(op.x), y: int(op.y), exists: !op.solve})
	}
	g := w.list.build()
	l, err := newLadder(sp, []*graph.Graph{g}, []string{floodPattern}, samples, w.seed)
	if err != nil {
		return err
	}
	l.inProcess(m)
	l.close()
	engineCounters(m, w.after, w.before)
	languageSide([]string{floodPattern}, m)
	var flips []graph.Edge
	for _, b := range w.flips[2] {
		flips = append(flips, b...)
	}
	graphProbes(w.list, flips, m)
	cacheProbes(m)

	file := filepath.Join(w.e.work, "flood.txt")
	if err := w.list.writeFile(file); err != nil {
		return err
	}
	var onServer []sample
	for _, s := range samples {
		s.exists = false
		onServer = append(onServer, s)
	}
	return withServer(w.e, sp, m, onServer, freshEdges(w.list, "ab", floodBatchEdges, rng), "-graph", file, "-pattern", floodPattern)
}
