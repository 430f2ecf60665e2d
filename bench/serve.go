package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/rspq"
)

// Shared plumbing of the two serving workloads: an rspqd child, the
// bench-side oracle copy of its graph, request encoding and response
// checking, and the transport rungs of the layer ladder.

type pathJSON struct {
	Vertices []int  `json:"vertices"`
	Word     string `json:"word"`
}

type queryResp struct {
	Found bool      `json:"found"`
	Path  *pathJSON `json:"path"`
}

func (q queryResp) result() rspq.Result {
	if q.Path == nil {
		return rspq.Result{Found: q.Found}
	}
	return rspq.Result{Found: q.Found, Path: &graph.Path{Vertices: q.Path.Vertices, Labels: []byte(q.Path.Word)}}
}

type batchResp struct {
	Results []queryResp `json:"results"`
	Found   []bool      `json:"found"`
}

// statsResp is the part of GET /stats the bench reads.
type statsResp struct {
	Engine  rspq.EngineStats `json:"engine"`
	Persist *persist.Stats   `json:"persist"`
}

// httpReq is one pre-encoded read request and what it asks.
type httpReq struct {
	wire   []byte
	pairs  []rspq.Pair
	batch  bool
	exists bool // exists_only
}

func queryReq(x, y int) httpReq {
	body := fmt.Sprintf(`{"x":%d,"y":%d}`, x, y)
	return httpReq{wire: encodeRequest("/query", []byte(body)), pairs: []rspq.Pair{{X: x, Y: y}}}
}

func batchReq(pairs []rspq.Pair, exists bool) httpReq {
	var b bytes.Buffer
	b.WriteString(`{"pairs":[`)
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":%d,"y":%d}`, p.X, p.Y)
	}
	b.WriteString(`]`)
	if exists {
		b.WriteString(`,"exists_only":true`)
	}
	b.WriteString(`}`)
	return httpReq{wire: encodeRequest("/batch", b.Bytes()), pairs: pairs, batch: true, exists: exists}
}

func edgeJSON(b *bytes.Buffer, e graph.Edge) {
	fmt.Fprintf(b, `{"from":%d,"label":%q,"to":%d}`, e.From, string(e.Label), e.To)
}

// edgesReq encodes one POST /edges delta.
func edgesReq(add, remove []graph.Edge) []byte {
	var b bytes.Buffer
	b.WriteString(`{"add":[`)
	for i, e := range add {
		if i > 0 {
			b.WriteByte(',')
		}
		edgeJSON(&b, e)
	}
	b.WriteString(`],"remove":[`)
	for i, e := range remove {
		if i > 0 {
			b.WriteByte(',')
		}
		edgeJSON(&b, e)
	}
	b.WriteString(`]}`)
	return encodeRequest("/edges", b.Bytes())
}

func getReq(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: rspqd\r\n\r\n")
}

// respRef locates one response body in a client's arena.
type respRef struct {
	status, off, n int
}

// serving is the state both serving workloads share.
type serving struct {
	name    string
	seed    int64
	e       *env
	pattern string
	list    edgeList
	file    string   // the list in rspqd's -graph format
	args    []string // rspqd flags beyond -graph and -pattern
	durable bool     // give every boot a fresh -data-dir
	boots   int

	solver *rspq.Solver // bench-side, for checking only
	oracle *graph.Graph // bench-side copy, kept in step with the acknowledged writes
	first  httpReq      // the set-up's first verified answer

	srv     *server
	dataDir string
	conns   []*client
	check   checker
	non2xx  int

	before, after statsResp // around the traced round
}

func (w *serving) holderPID() int   { return w.srv.pid() }
func (w *serving) confined() bool   { return true }
func (w *serving) checks() *checker { return &w.check }

// prepare builds rspqd (so no set-up pays for it), writes the graph
// file and builds the oracle copy.
func (w *serving) prepare() error {
	if _, err := w.e.rspqdBinary(); err != nil {
		return err
	}
	s, err := rspq.NewSolver(w.pattern)
	if err != nil {
		return err
	}
	w.solver = s
	w.oracle = w.list.build()
	w.file = filepath.Join(w.e.work, w.name+".txt")
	return w.list.writeFile(w.file)
}

// setUp boots rspqd on the graph file (cold: a durable server gets an
// empty data directory), opens the connections and gets — and verifies
// — a first answer.
func (w *serving) setUp(nconns int) error {
	var err error
	args := append([]string{"-graph", w.file, "-pattern", w.pattern}, w.args...)
	if w.durable {
		w.boots++
		w.dataDir = filepath.Join(w.e.work, w.name+"-data-"+strconv.Itoa(w.boots))
		args = append(args, "-data-dir", w.dataDir)
	}
	w.srv, err = startServer(w.e.rspqd, filepath.Join(w.e.work, w.name+".log"), args...)
	if err != nil {
		return err
	}
	for i := 0; i < nconns; i++ {
		c, err := dial(w.srv.addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, c)
	}
	c := w.conns[0]
	status, off, n := c.do(w.first.wire)
	var c0 checker
	c0.op()
	w.verifyBody(&c0, w.first, status, c.body(off, n), false)
	c.reset()
	if c0.failed > 0 {
		return fmt.Errorf("first answer does not verify: %v", c0.messages)
	}
	return nil
}

func (w *serving) tearDown() {
	for _, c := range w.conns {
		c.close()
	}
	w.conns = nil
	if w.srv != nil {
		w.srv.kill()
		w.srv = nil
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
		w.dataDir = ""
	}
}

func (w *serving) stats() (statsResp, error) {
	var st statsResp
	err := w.srv.getJSON("/stats", &st)
	return st, err
}

// verifyBody checks one response against the oracle graph in its
// current state: 2xx, well-formed, one answer per pair, every witness
// valid; with cross the Found bits are cross-checked too.
func (w *serving) verifyBody(c *checker, req httpReq, status int, body []byte, cross bool) {
	what := w.name
	if status != 200 {
		w.non2xx++
		c.fail("%s: status %d", what, status)
		return
	}
	var answers []queryResp
	if req.batch {
		var br batchResp
		if err := json.Unmarshal(body, &br); err != nil {
			c.fail("%s: bad /batch body: %v", what, err)
			return
		}
		answers = br.Results
		if req.exists {
			answers = make([]queryResp, len(br.Found))
			for i, f := range br.Found {
				answers[i].Found = f
			}
		}
	} else {
		var qr queryResp
		if err := json.Unmarshal(body, &qr); err != nil {
			c.fail("%s: bad /query body: %v", what, err)
			return
		}
		answers = []queryResp{qr}
	}
	if len(answers) != len(req.pairs) {
		c.fail("%s: %d answers for %d pairs", what, len(answers), len(req.pairs))
		return
	}
	for i, a := range answers {
		p := req.pairs[i]
		res := a.result()
		if !req.exists {
			c.witness(res, w.oracle, w.solver, p.X, p.Y, what)
		}
		if cross && i < 4 {
			c.crossCheck(res.Found, !req.exists, w.oracle, w.solver, p.X, p.Y, what, func() edgeList { return listOf(w.oracle) })
		}
	}
}

// httpRungs runs the transport rungs of the ladder against a live
// rspqd: POST /query on warmed pairs (so its span sits on top of the
// engine's result-hit rung), the same with "trace":true (the response
// then reports the engine's own total, and the rest of the span is
// rspqd's), a 64-pair POST /batch, an unloaded POST /edges and a
// /metrics scrape. fresh are edges the served graph does not hold:
// adding then removing them leaves it as it was.
func httpRungs(srv *server, sp *spanLog, m map[string]float64, pairs []sample, fresh []graph.Edge) error {
	c, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	non2xx := 0
	send := func(name string, op int, wire []byte) []byte {
		id := int32(-1)
		if name != "" {
			id = sp.begin(name, -1, int32(op))
		}
		status, off, n := c.do(wire)
		if name != "" {
			sp.end(id)
		}
		if status != 200 {
			non2xx++
		}
		body := append([]byte(nil), c.body(off, n)...)
		c.reset()
		return body
	}
	var group []rspq.Pair
	var self []float64
	for i, s := range pairs {
		req := queryReq(s.x, s.y)
		send("", i, req.wire) // fill the caches
		send("rung.http.query", i, req.wire)
		traced := encodeRequest("/query", []byte(fmt.Sprintf(`{"x":%d,"y":%d,"trace":true}`, s.x, s.y)))
		t0 := time.Now()
		body := send("", i, traced)
		span := time.Since(t0)
		var tr struct {
			Trace *rspq.QueryTrace `json:"trace"`
		}
		if json.Unmarshal(body, &tr) == nil && tr.Trace != nil {
			self = append(self, float64(span.Nanoseconds()-tr.Trace.TotalNanos)/1e3)
		}
		group = append(group, req.pairs[0])
	}
	if len(group) > 0 {
		for len(group) < 64 {
			group = append(group, group[len(group)%len(pairs)])
		}
		b := batchReq(group[:64], false)
		send("", 0, b.wire)
		for i := 0; i < 8; i++ {
			send("rung.http.batch64", i, b.wire)
		}
	}
	if len(fresh) > 0 {
		for i := 0; i < 8; i++ {
			send("rung.http.edges", i, edgesReq(fresh, nil))
			send("rung.http.edges", i, edgesReq(nil, fresh))
		}
	}
	t0 := time.Now()
	status, off, n := c.do(getReq("/metrics"))
	m["metrics.scrape_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	if status != 200 {
		non2xx++
	}
	m["metrics.series"] = float64(countSeries(c.body(off, n)))

	m["rspqd.query_us"] = sp.meanUS("rung.http.query")
	m["rspqd.self_us"] = mean(self)
	m["rspqd.batch64_us_per_pair"] = sp.meanUS("rung.http.batch64") / 64
	m["rspqd.edges_us"] = sp.meanUS("rung.http.edges")
	m["rspqd.non2xx"] += float64(non2xx)
	m["rspqd.boot_cold_ms"] = float64(srv.bootDur.Nanoseconds()) / 1e6
	return nil
}

// freshEdges draws count random triples the list does not hold.
func freshEdges(l edgeList, labels string, count int, rng *rand.Rand) []graph.Edge {
	have := make(map[graph.Edge]bool, len(l.edges))
	for _, e := range l.edges {
		have[e] = true
	}
	var out []graph.Edge
	for len(out) < count {
		e := graph.Edge{From: rng.Intn(l.n), Label: labels[rng.Intn(len(labels))], To: rng.Intn(l.n)}
		if !have[e] {
			have[e] = true
			out = append(out, e)
		}
	}
	return out
}

// withServer gives a traced in-process workload its top rung: an rspqd
// booted on the workload's graph and language, the transport rungs, and
// a stop.
func withServer(e *env, sp *spanLog, m map[string]float64, pairs []sample, fresh []graph.Edge, args ...string) error {
	bin, err := e.rspqdBinary()
	if err != nil {
		return err
	}
	srv, err := startServer(bin, filepath.Join(e.work, "ladder-rspqd.log"), args...)
	if err != nil {
		return err
	}
	defer srv.kill()
	return httpRungs(srv, sp, m, pairs, fresh)
}
