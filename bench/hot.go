package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// serve-hot: rspqd over loopback on 2 keep-alive connections, each
// driven closed-loop. A 67k-vertex / 200k-edge graph file under
// a*(bb+|())c* (paper Example 1, the Ψtr summary tier); reads draw
// Zipf(1.1) over 512 hot targets whose tables and results all fit the
// default caches and are warmed, so the kernel does almost none of the
// work and transport, JSON, instrument, the server RWMutex, Engine
// bookkeeping and internal/cache do most of it.
//
// The read segment is 80 % POST /query and 20 % POST /batch of 64 pairs
// over 4 targets (half exists_only): the median read is a /query, the
// p95 read a /batch (BatchSolver sharing). The round closes with
// single-edge POST /edge writes — each moves the epoch and so empties
// both caches — and an untimed re-warm.
type serveHot struct {
	serving
	reqs    []httpReq      // the read pool: singles, then batches
	singles [][]int32      // singles[t]: pool indices of target t's /query requests
	batches []int32        // pool indices of the /batch requests
	warm    [][]byte       // /batch requests that touch every pool pair
	rounds  [][2][]int32   // rounds[r][conn]: pool indices, in send order
	writes  [][]graph.Edge // writes[r]: the edges POSTed one by one
	wires   [][][]byte     // wires[r][k]: writes[r][k] as a POST /edge message
	sampled []map[int32]bool
	dig     string

	lat   [2][]float64
	start [2][]time.Time
	refs  [2][]respRef
}

const (
	hotPattern       = "a*(bb+|())c*"
	hotVertices      = 66_667
	hotEdges         = 200_000
	hotTargets       = 512
	hotSources       = 16 // per target: 8 planted, 8 uniform
	hotBatches       = 256
	hotReadsPerConn  = 12_000 // per round, 1200 samples beyond the p95
	hotWarmupPerConn = 4_000
	hotWrites        = 400 // per round, 200 per connection
	hotZipf          = 1.1
)

func newServeHot() *serveHot {
	return &serveHot{serving: serving{name: "serve-hot", pattern: hotPattern}}
}

func (w *serveHot) generate(seed int64, scale float64, e *env) error {
	w.seed, w.e = seed, e
	n, m := graphSize(hotVertices, hotEdges, scale)
	w.list = randomGraph(n, m, "abc", newRNG(fixtureSeed, 1))
	if err := w.prepare(); err != nil {
		return err
	}
	d := newDigester()
	d.edges(w.list)

	// The hot set: targets that have a planted source, each with planted
	// and uniform sources.
	rng := newRNG(fixtureSeed, 2)
	targets := min(hotTargets, n/8)
	seenY := map[int]bool{}
	for tries := 0; len(w.singles) < targets; tries++ {
		if tries > 64*n {
			return fmt.Errorf("only %d of %d hot targets could be planted", len(w.singles), targets)
		}
		x, y, ok := plantPair(w.oracle, w.solver.Min, 8, rng)
		if !ok || seenY[y] {
			continue
		}
		seenY[y] = true
		var idx []int32
		for _, x := range sourcesFor(w.oracle, w.solver.Min, y, x, hotSources, rng) {
			idx = append(idx, int32(len(w.reqs)))
			w.reqs = append(w.reqs, queryReq(x, y))
			d.ints(x, y)
		}
		w.singles = append(w.singles, idx)
	}
	w.first = w.reqs[0]
	zipf := rand.NewZipf(rng, hotZipf, 1, uint64(targets-1))
	pairsOf := func(t int) []rspq.Pair {
		var ps []rspq.Pair
		for _, ri := range w.singles[t] {
			ps = append(ps, w.reqs[ri].pairs[0])
		}
		return ps
	}
	for b := 0; b < hotBatches; b++ {
		var ps []rspq.Pair
		for k := 0; k < 4; k++ {
			ps = append(ps, pairsOf(int(zipf.Uint64()))...)
		}
		w.batches = append(w.batches, int32(len(w.reqs)))
		w.reqs = append(w.reqs, batchReq(ps, b%2 == 1))
		for _, p := range ps {
			d.ints(p.X, p.Y)
		}
	}
	for t := 0; t < targets; t += 4 {
		var ps []rspq.Pair
		for k := t; k < min(t+4, targets); k++ {
			ps = append(ps, pairsOf(k)...)
		}
		w.warm = append(w.warm, batchReq(ps, false).wire)
	}

	perConn, nWrites := scaled(hotReadsPerConn, scale, 64), scaled(hotWrites, scale, 4)
	fresh := map[graph.Edge]bool{}
	for r := 0; r <= timedRounds; r++ {
		rng := newRNG(seed, 100+uint64(r))
		zipf := rand.NewZipf(rng, hotZipf, 1, uint64(targets-1))
		k := perConn
		if r == 0 {
			k = scaled(hotWarmupPerConn, scale, 32)
		}
		var ops [2][]int32
		for c := range ops {
			ops[c] = make([]int32, k)
			for i := range ops[c] {
				if rng.Intn(5) == 0 {
					ops[c][i] = w.batches[rng.Intn(len(w.batches))]
				} else {
					t := w.singles[zipf.Uint64()]
					ops[c][i] = t[rng.Intn(len(t))]
				}
				d.ints(int(ops[c][i]))
			}
		}
		w.rounds = append(w.rounds, ops)
		var ws []graph.Edge
		var wires [][]byte
		for len(ws) < nWrites {
			e := graph.Edge{From: rng.Intn(n), Label: "abc"[rng.Intn(3)], To: rng.Intn(n)}
			if fresh[e] || w.oracle.HasEdge(e.From, e.Label, e.To) {
				continue
			}
			fresh[e] = true
			ws = append(ws, e)
			var b bytes.Buffer
			edgeJSON(&b, e)
			wires = append(wires, encodeRequest("/edge", b.Bytes()))
			d.ints(e.From, int(e.Label), e.To)
		}
		w.writes = append(w.writes, ws)
		w.wires = append(w.wires, wires)
		sm := map[int32]bool{} // requests cross-checked: up to 52 a round, fewer if draws repeat
		for i := 0; i < 256/timedRounds+1; i++ {
			sm[ops[0][rng.Intn(len(ops[0]))]] = true
		}
		w.sampled = append(w.sampled, sm)
	}
	w.dig = d.sum()
	for c := range w.lat {
		w.lat[c] = make([]float64, perConn)
		w.start[c] = make([]time.Time, perConn)
		w.refs[c] = make([]respRef, perConn)
	}
	return nil
}

func (w *serveHot) digest() string { return w.dig }
func (w *serveHot) setUp() error   { return w.serving.setUp(2) }

// rewarm touches every pair of the hot set once, untimed, so the read
// segment that follows finds every table and result cached.
func (w *serveHot) rewarm() error {
	c := w.conns[0]
	for _, wire := range w.warm {
		if status, _, _ := c.do(wire); status != 200 {
			return fmt.Errorf("re-warm: status %d", status)
		}
		c.reset()
	}
	return nil
}

func (w *serveHot) round(r int, rec *roundRec, sp *spanLog) error {
	if r == 0 {
		if err := w.rewarm(); err != nil {
			return err
		}
	}
	ops := w.rounds[r]
	var err error
	if sp != nil {
		if w.before, err = w.stats(); err != nil {
			return err
		}
	}
	// Read segment: both connections closed-loop, started together.
	pid := w.srv.pid()
	c0 := procCPU(pid)
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for c := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, lat, refs, start := w.conns[c], w.lat[c], w.refs[c], w.start[c]
			<-begin
			for i, ri := range ops[c] {
				t0 := time.Now()
				status, off, n := cl.do(w.reqs[ri].wire)
				lat[i] = micros(time.Since(t0))
				start[i] = t0
				refs[i] = respRef{status, off, n}
			}
		}()
	}
	seg := time.Now()
	close(begin)
	wg.Wait()
	rec.readWall += time.Since(seg)
	for c := range ops {
		k := len(ops[c])
		rec.readLat = append(rec.readLat, w.lat[c][:k]...)
		rec.reads += k
		if sp != nil {
			for i, ri := range ops[c] {
				name := "read.query"
				if w.reqs[ri].batch {
					name = "read.batch64"
				}
				sp.add(name, -1, int32(i), w.start[c][i], time.Duration(w.lat[c][i]*1e3))
			}
		}
	}

	// Write segment: single-edge inserts, split over the two
	// connections like the reads. (One connection alone leaves a core
	// idle between request and reply, and the wake-up latency of an idle
	// core then decides the number: 50–72 µs from round to round.)
	wires := w.wires[r]
	wlat := make([]float64, len(wires))
	wstart := make([]time.Time, len(wires))
	wrefs := make([]respRef, len(wires))
	begin = make(chan struct{})
	for c := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := w.conns[c]
			<-begin
			for i := c; i < len(wires); i += len(w.conns) {
				t0 := time.Now()
				status, off, n := cl.do(wires[i])
				wlat[i] = micros(time.Since(t0))
				wstart[i] = t0
				wrefs[i] = respRef{status, off, n}
			}
		}()
	}
	close(begin)
	wg.Wait()
	rec.writeLat = append(rec.writeLat, wlat...)
	rec.writes += len(wires)
	if sp != nil {
		for i := range wires {
			sp.add("write.edge", -1, int32(i), wstart[i], time.Duration(wlat[i]*1e3))
		}
	}
	rec.cpu += procCPU(pid) - c0
	if sp != nil {
		if w.after, err = w.stats(); err != nil {
			return err
		}
	}

	// Untimed: check the reads against the oracle as it was while they
	// ran, then bring the oracle up to the writes, then re-warm.
	w.verifyReads(r)
	for i, e := range w.writes[r] {
		w.check.op()
		if wrefs[i].status != 200 {
			w.non2xx++
			w.check.fail("serve-hot: POST /edge status %d", wrefs[i].status)
		}
		w.oracle.AddEdge(e.From, e.Label, e.To)
	}
	for _, c := range w.conns {
		c.reset()
	}
	return w.rewarm()
}

// verifyReads checks every response of the round. The server's state is
// constant during a read segment, so equal requests must get equal
// bytes: the first response to each distinct request is decoded and
// checked in full, the rest are compared to it byte for byte.
func (w *serveHot) verifyReads(r int) {
	first := map[int32][]byte{}
	for c, ops := range w.rounds[r] {
		for i, ri := range ops {
			ref := w.refs[c][i]
			body := w.conns[c].body(ref.off, ref.n)
			w.check.op()
			if seen, ok := first[ri]; ok && ref.status == 200 {
				if !bytes.Equal(seen, body) {
					w.check.fail("serve-hot: two answers to one request differ within a read segment")
				}
				continue
			}
			w.verifyBody(&w.check, w.reqs[ri], ref.status, body, w.sampled[r][ri])
			if ref.status == 200 {
				first[ri] = body
			}
		}
	}
}

// layers: the ladder over the hot pairs on the oracle copy, the live
// server's transport rungs, and its /stats deltas over the traced
// round.
func (w *serveHot) layers(sp *spanLog, m map[string]float64) error {
	rng := newRNG(w.seed, 900)
	var samples []sample
	for len(samples) < 64 {
		t := w.singles[rng.Intn(len(w.singles))]
		p := w.reqs[t[rng.Intn(len(t))]].pairs[0]
		samples = append(samples, sample{x: p.X, y: p.Y})
	}
	g := w.list.build()
	l, err := newLadder(sp, []*graph.Graph{g}, []string{w.pattern}, samples, w.seed)
	if err != nil {
		return err
	}
	l.inProcess(m)
	l.close()
	languageSide([]string{w.pattern}, m)
	graphProbes(w.list, w.writes[2], m)
	cacheProbes(m)
	engineCounters(m, w.after.Engine, w.before.Engine)
	m["rspqd.non2xx"] = float64(w.non2xx)
	return httpRungs(w.srv, sp, m, samples, nil)
}
