package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// serve-churn: the same Engine / cache / graph layers as serve-hot used
// the opposite way. rspqd -data-dir <tmp> -fsync off (the stated flush
// policy) and otherwise defaults; a 111k-vertex / 333k-edge graph under
// a*c*, half the pairs planted positives, Zipf(1.1) over 256 targets.
//
// Connection A reads closed-loop; connection B sends one POST /edges
// batch of flips each time A has completed another 8 reads and sent the
// next, so writes are count-deterministic yet overlap reads, every write
// moves the epoch and empties both caches, and 12.5 % of the reads are
// the first of a fresh epoch. The flips cross the default compaction
// watermark (4096 pending edges) several times per round: epoch
// invalidation, overlay View pins, evictions, WAL appends, background
// compaction with its checkpoint, and writers queued behind readers are
// all on the path, so a read-path gain bought with write-path or memory
// cost shows here.
type serveChurn struct {
	serving
	reqs    []httpReq
	targets [][]int32 // targets[t]: pool indices of its /query requests
	pool    []graph.Edge
	rounds  [][]int32 // rounds[r]: pool indices connection A sends, in order
	writes  [][]churnWrite
	sampled []map[int]bool
	dig     string

	lat      []float64
	start    []time.Time
	refs     []respRef
	ackedAt  []int32 // writes acknowledged when read i was sent
	sentAt   []int32 // writes sent when read i completed
	applied  int     // writes of the current round applied to the oracle
	wlatLoad []float64
}

// churnWrite is one POST /edges delta: the flips split by what they do
// to the graph as it stands when the write is applied.
type churnWrite struct {
	wire        []byte
	add, remove []graph.Edge
}

const (
	churnPattern     = "a*c*"
	churnVertices    = 111_111
	churnEdges       = 333_333
	churnTargets     = 256
	churnSources     = 16
	churnSweepMin    = 128 // band of a target's backward-sweep size, in product pairs
	churnSweepMax    = 512
	churnSweepDepth  = 32  // the median depth, in BFS levels, of a sweep in that band
	churnReads       = 800 // per round, on connection A
	churnWarmupReads = 320
	churnWriteEvery  = 8 // reads per write
	// Edges per write. 99 writes × 320 flips a round is nearly eight times
	// the default watermark; the compactor polls it every 250 ms (rspqd's
	// default), so a round holds five to eight compaction + checkpoint
	// cycles, each starting up to a poll interval after its crossing.
	churnFlips = 320
	// The writes toggle edges of a pool sixteen times the watermark, so
	// that a toggle almost never undoes a pending one (the graph keeps
	// its delta as a net set: re-flipping an edge shrinks it).
	churnPool = 65_536
	churnZipf = 1.1
)

func newServeChurn() *serveChurn {
	return &serveChurn{serving: serving{name: "serve-churn", pattern: churnPattern, durable: true,
		args: []string{"-fsync", "off"}}}
}

func (w *serveChurn) generate(seed int64, scale float64, e *env) error {
	w.seed, w.e = seed, e
	n, m := graphSize(churnVertices, churnEdges, scale)
	w.list = randomGraph(n, m, "abc", newRNG(fixtureSeed, 1))
	if err := w.prepare(); err != nil {
		return err
	}
	d := newDigester()
	d.edges(w.list)

	// A table-miss read costs what the backward sweep from its target
	// visits, and on this graph that is heavy-tailed (median 32 product
	// pairs, p99 16k; 14 to 70 BFS levels at equal size). With Zipf
	// weights a few targets carry most reads. Targets are therefore
	// taken from a band of sweep sizes and ranked by how close their
	// sweep's depth is to the typical one, the most typical target the
	// hottest; every sweep is then small next to the O(V) table export
	// that each miss pays anyway.
	rng := newRNG(fixtureSeed, 2)
	nt := min(churnTargets, n/32)
	type cand struct{ y, x, off int }
	var cands []cand
	seenY := map[int]bool{}
	for tries := 0; len(cands) < 4*nt && tries < 8*n; tries++ {
		y := rng.Intn(n)
		if seenY[y] {
			continue
		}
		seenY[y] = true
		sz, depth := backwardShape(w.oracle, w.solver.Min, y, churnSweepMax)
		if sz < churnSweepMin || sz > churnSweepMax {
			continue
		}
		if x, ok := plantSource(w.oracle, w.solver.Min, y, 8, rng); ok {
			cands = append(cands, cand{y, x, max(depth-churnSweepDepth, churnSweepDepth-depth)})
		}
	}
	if len(cands) < nt {
		return fmt.Errorf("only %d of %d targets in the sweep-size band", len(cands), nt)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].off < cands[j].off })
	for _, c := range cands[:nt] {
		y := c.y
		var idx []int32
		for _, x := range sourcesFor(w.oracle, w.solver.Min, y, c.x, churnSources, rng) {
			idx = append(idx, int32(len(w.reqs)))
			w.reqs = append(w.reqs, queryReq(x, y))
			d.ints(x, y)
		}
		w.targets = append(w.targets, idx)
	}
	w.first = w.reqs[0]
	w.pool = flipPool(w.list, "abc", min(churnPool, m/4), rng)

	// Flips are encoded against the graph as the writes before them
	// leave it: an edge present then is removed, an absent one added, so
	// every op of every delta is effective.
	present := make(map[graph.Edge]bool, len(w.pool))
	for i, e := range w.pool {
		present[e] = i%2 == 0
	}
	reads, flips := scaled(churnReads, scale, 4*churnWriteEvery), scaled(churnFlips, scale, 8)
	for r := 0; r <= timedRounds; r++ {
		rng := newRNG(seed, 100+uint64(r))
		zipf := rand.NewZipf(rng, churnZipf, 1, uint64(nt-1))
		k := reads
		if r == 0 {
			k = scaled(churnWarmupReads, scale, 2*churnWriteEvery)
		}
		ops := make([]int32, k)
		for i := range ops {
			t := w.targets[zipf.Uint64()]
			ops[i] = t[rng.Intn(len(t))]
			d.ints(int(ops[i]))
		}
		w.rounds = append(w.rounds, ops)
		var ws []churnWrite
		for j := 0; j < (k-1)/churnWriteEvery; j++ { // one per read 8, 16, … sent
			var cw churnWrite
			for _, e := range flipBatch(w.pool, flips, rng) {
				if present[e] {
					cw.remove = append(cw.remove, e)
				} else {
					cw.add = append(cw.add, e)
				}
				present[e] = !present[e]
				d.ints(e.From, int(e.Label), e.To)
			}
			cw.wire = edgesReq(cw.add, cw.remove)
			ws = append(ws, cw)
		}
		w.writes = append(w.writes, ws)
		w.sampled = append(w.sampled, sampleIndices(len(ops), 256/timedRounds+1, rng))
	}
	w.dig = d.sum()
	w.lat = make([]float64, reads)
	w.start = make([]time.Time, reads)
	w.refs = make([]respRef, reads)
	w.ackedAt = make([]int32, reads)
	w.sentAt = make([]int32, reads)
	return nil
}

func (w *serveChurn) digest() string { return w.dig }
func (w *serveChurn) setUp() error   { return w.serving.setUp(2) }

func (w *serveChurn) round(r int, rec *roundRec, sp *spanLog) error {
	ops, writes := w.rounds[r], w.writes[r]
	var err error
	if sp != nil {
		if w.before, err = w.stats(); err != nil {
			return err
		}
	}
	pid := w.srv.pid()
	c0 := procCPU(pid)
	var sent, acked atomic.Int32
	// One token per write; sized to the round's writes so connection A
	// never blocks on connection B.
	trigger := make(chan struct{}, len(writes))
	wlat := make([]float64, len(writes))
	wstart := make([]time.Time, len(writes))
	wrefs := make([]respRef, len(writes))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // connection B
		defer wg.Done()
		cl := w.conns[1]
		for j := range writes {
			if _, ok := <-trigger; !ok {
				return
			}
			sent.Add(1)
			t0 := time.Now()
			status, off, n := cl.do(writes[j].wire)
			wlat[j] = micros(time.Since(t0))
			wstart[j] = t0
			acked.Add(1)
			wrefs[j] = respRef{status, off, n}
		}
	}()
	cl := w.conns[0] // connection A
	seg := time.Now()
	for i, ri := range ops {
		w.ackedAt[i] = acked.Load()
		t0 := time.Now()
		status, off, n := 0, 0, 0
		if cl.send(w.reqs[ri].wire) {
			// The write goes out while this read is in flight, so it
			// queues behind a reader every time. (Released between two
			// reads, it raced the next read for the server's lock, and
			// which of the two waited — a coin flip per write — put both
			// the write p50 and the read p95 on a mode boundary.)
			if i > 0 && i%churnWriteEvery == 0 {
				trigger <- struct{}{}
			}
			status, off, n = cl.recv()
		}
		w.lat[i] = micros(time.Since(t0))
		w.start[i] = t0
		w.sentAt[i] = sent.Load()
		w.refs[i] = respRef{status, off, n}
	}
	rec.readWall += time.Since(seg)
	close(trigger)
	wg.Wait()
	rec.cpu += procCPU(pid) - c0
	rec.readLat = append(rec.readLat, w.lat[:len(ops)]...)
	rec.reads += len(ops)
	rec.writeLat = append(rec.writeLat, wlat...)
	rec.writes += len(writes)
	if sp != nil {
		if w.after, err = w.stats(); err != nil {
			return err
		}
		w.wlatLoad = wlat
		for i := range ops {
			// A read is the first of a fresh epoch when a write was
			// acknowledged since the previous read was sent, or one was in
			// flight while it ran.
			name := "read.same_epoch"
			if (i > 0 && w.ackedAt[i] > w.ackedAt[i-1]) || w.sentAt[i] > w.ackedAt[i] {
				name = "read.fresh_epoch"
			}
			sp.add(name, -1, int32(i), w.start[i], time.Duration(w.lat[i]*1e3))
		}
		for j := range writes {
			sp.add("write.edges", -1, int32(j), wstart[j], time.Duration(wlat[j]*1e3))
		}
	}

	// Untimed. Read i ran against the graph after some number of the
	// round's writes between ackedAt[i] and sentAt[i]; reads are ordered,
	// so replaying the writes onto the oracle forward-only and accepting
	// a witness at any state of its window checks every answer against a
	// state it can have seen. Found bits are cross-checked only where the
	// window is a single state.
	w.applied = 0
	for i, ri := range ops {
		ref := w.refs[i]
		for w.applied < int(w.ackedAt[i]) {
			w.apply(writes[w.applied])
		}
		w.check.op()
		for {
			var probe checker
			probe.op()
			cross := w.sampled[r][i] && w.ackedAt[i] == w.sentAt[i]
			w.verifyBody(&probe, w.reqs[ri], ref.status, cl.body(ref.off, ref.n), cross)
			if probe.failed == 0 || ref.status != 200 || w.applied >= int(w.sentAt[i]) {
				w.check.oracleChecked += probe.oracleChecked
				w.check.deferred = append(w.check.deferred, probe.deferred...)
				if probe.failed > 0 {
					w.check.fail("%s", probe.messages[0])
				}
				break
			}
			w.apply(writes[w.applied])
		}
	}
	for w.applied < len(writes) {
		w.apply(writes[w.applied])
	}
	for j := range writes {
		w.check.op()
		var er struct{ Added, Removed int }
		body := w.conns[1].body(wrefs[j].off, wrefs[j].n)
		if wrefs[j].status != 200 {
			w.non2xx++
			w.check.fail("serve-churn: POST /edges status %d", wrefs[j].status)
		} else if err := json.Unmarshal(body, &er); err != nil || er.Added != len(writes[j].add) || er.Removed != len(writes[j].remove) {
			w.check.fail("serve-churn: POST /edges applied %d adds / %d removes, want %d / %d", er.Added, er.Removed, len(writes[j].add), len(writes[j].remove))
		}
	}
	for _, c := range w.conns {
		c.reset()
	}
	return nil
}

// apply brings the oracle one write forward.
func (w *serveChurn) apply(cw churnWrite) {
	for _, e := range cw.add {
		w.oracle.AddEdge(e.From, e.Label, e.To)
	}
	for _, e := range cw.remove {
		w.oracle.RemoveEdge(e.From, e.Label, e.To)
	}
	w.applied++
}

// layers: the ladder over the pool's pairs on a fresh copy of the
// graph, the live server's transport rungs and /stats deltas, the WAL
// and snapshot files of its data directory, and a warm restart on that
// directory.
func (w *serveChurn) layers(sp *spanLog, m map[string]float64) error {
	rng := newRNG(w.seed, 900)
	var samples []sample
	for len(samples) < 48 {
		t := w.targets[rng.Intn(len(w.targets))]
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
	flips := flipBatch(w.pool, min(churnFlips, len(w.pool)), rng)
	graphProbes(w.list, flips, m)
	cacheProbes(m)
	if err := walProbe(w.e.work, flips, m); err != nil {
		return err
	}
	engineCounters(m, w.after.Engine, w.before.Engine)
	if a, b := w.after.Persist, w.before.Persist; a != nil && b != nil {
		m["persist.checkpoints"] = float64(a.Checkpoints - b.Checkpoints)
		m["persist.checkpoint_ms"] = 1e3 * a.LastCheckpointSeconds
	}
	m["rspqd.non2xx"] = float64(w.non2xx)
	if err := httpRungs(w.srv, sp, m, samples, freshEdges(listOf(w.oracle), "abc", len(flips), rng)); err != nil {
		return err
	}
	// Loaded minus unloaded write latency: the time a write spent queued
	// behind readers.
	m["rspqd.write_wait_us"] = percentile(w.wlatLoad, 50) - m["rspqd.edges_us"]

	// Warm restart on the data directory, informational: a graceful stop
	// folds the WAL into a final snapshot, the next boot maps it.
	for _, c := range w.conns {
		c.close()
	}
	w.conns = nil
	w.srv.stop()
	if fi, err := os.Stat(filepath.Join(w.dataDir, "snapshot.rspq")); err == nil {
		m["persist.snapshot_bytes_per_edge"] = float64(fi.Size()) / float64(w.oracle.NumEdges())
	}
	args := append([]string{"-graph", w.file, "-pattern", w.pattern, "-data-dir", w.dataDir}, w.args...)
	if w.srv, err = startServer(w.e.rspqd, filepath.Join(w.e.work, w.name+".log"), args...); err != nil {
		return err
	}
	m["rspqd.boot_warm_ms"] = float64(w.srv.bootDur.Nanoseconds()) / 1e6
	if st, err := w.stats(); err == nil && st.Persist != nil {
		m["persist.recovery_ms"] = 1e3 * st.Persist.RecoverySeconds
	}
	return nil
}
