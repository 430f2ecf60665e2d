// Command rspqd is a long-lived RSPQ query server: one compiled
// language and one graph behind an rspq.Engine whose cross-query
// caches (per-target pruning tables + hot results) survive across
// requests.
//
// Usage:
//
//	rspqd -graph g.txt -pattern 'a*(bb+|())c*' -addr :8080
//	rspqd -gen 400 -pattern 'a*c*'               # random demo graph
//
// Endpoints:
//
//	POST /query  {"x":0,"y":3}                      one query
//	POST /query  {"x":0,"y":3,"exists_only":true}   existence bit only
//	POST /batch  {"pairs":[{"x":0,"y":3},...]}      many queries
//	POST /edge   {"from":3,"label":"c","to":0}      add one edge
//	POST /edges  {"add":[...],"remove":[...]}       bulk edge delta
//	GET  /stats                                     engine + cache stats
//	GET  /metrics                                   Prometheus text exposition
//	GET  /healthz                                   liveness: build info, epoch, sizes
//
// Observability: /metrics serves the Prometheus exposition of one
// shared registry covering the transport (rspqd_http_*), the engine
// (per-tier query counts and latency, per-stage timings, cache and
// compaction state) and the kernels (BFS rounds, sweeps, stopped
// sweeps); /stats reads the very same registry, so the
// two never disagree. POST /query with "trace":true (or ?trace=1)
// additionally returns the per-query trace: stage timings plus every
// kernel round with its frontier size and wall time. -slow-query
// logs any request at or above the threshold; -max-inflight bounds the
// query pairs concurrently admitted through /batch (excess batches get
// 429 + Retry-After); -debug-addr serves net/http/pprof on a separate
// listener so profiling is opt-in and never exposed on the query port.
//
// Every backward product search is one level-synchronous sweep on the
// goroutine answering its target group; a /batch spreads its target
// groups over -workers goroutines, and /stats reports the cumulative
// sweep rounds.
//
// The graph file uses the line format of internal/graph ("n <count>" /
// "e <from> <label> <to>"). The mutation endpoints demonstrate the
// epoch machinery end to end: a mutation bumps the graph's epoch, so
// every cached table and result goes stale automatically — but queries
// never take the write path's freeze. The next query pins the pending
// delta as a sorted read overlay on the last frozen CSR (graph.View),
// so a streaming client that interleaves /edges batches with queries
// pays O(delta) per snapshot pin, not a stop-the-world rebuild.
// Merging the delta back into a flat CSR is the job of the background
// compaction goroutine: every -compact-every it checks the pending
// delta against the -compact-delta watermark under a read lock and,
// when due, takes the write lock — the same exclusion as mutations —
// for one Engine.Compact. POST /edges applies a whole delta batch
// (adds and tombstoned removes) under one write-lock acquisition.
// Mutations take the server's write lock; queries share a read lock.
//
// On SIGINT/SIGTERM the server drains gracefully: the listener stops
// accepting, in-flight requests get up to -drain to finish, and the
// compaction goroutine exits cleanly before the process does.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/rspq"
)

// maxBody bounds request bodies; a /batch of a million pairs fits
// comfortably.
const maxBody = 32 << 20

// server owns the engine and serializes graph mutations against
// in-flight queries (the graph contract: mutations must not race
// reads; the epoch handles staleness, the RWMutex handles the race).
type server struct {
	mu      sync.RWMutex
	g       *graph.Graph
	eng     *rspq.Engine
	pattern string
	started time.Time

	reg *metrics.Registry // shared engine+transport registry, served by /metrics

	// db, when non-nil, is the durability layer (-data-dir): mutation
	// handlers append each effective batch to its write-ahead log
	// before touching the graph, and compactions/shutdown publish
	// snapshot checkpoints through it.
	db *persist.DB

	slowQuery     time.Duration // log requests at/above this; 0 disables
	maxInflight   int64         // /batch admission bound on in-flight pairs; 0 = unbounded
	inflightPairs atomic.Int64
	hm            httpMetrics

	bufs sync.Pool // *[]byte: request bodies, then the answers appended over them (wire.go)
	recs sync.Pool // *statusRecorder: the instrument wrapper's (obs.go)
}

func newServer(s *rspq.Solver, g *graph.Graph, pattern string, cfg rspq.EngineConfig) *server {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	srv := &server{
		g:       g,
		eng:     rspq.NewEngine(s, g, cfg),
		pattern: pattern,
		started: time.Now(),
		reg:     reg,
	}
	srv.hm = newHTTPMetrics(reg, func() float64 { return float64(srv.inflightPairs.Load()) })
	srv.bufs.New = func() any { b := make([]byte, 0, 4096); return &b }
	srv.recs.New = func() any { return new(statusRecorder) }
	return srv
}

// compactLoop is the background compaction goroutine: it polls the
// pending-delta watermark every interval and merges the delta into a
// flat CSR when due, keeping the query path free of refreezes. It
// returns when ctx is canceled (graceful shutdown).
func (s *server) compactLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.maybeCompact()
		}
	}
}

// maybeCompact checks the watermark under a read lock (cheap, shared
// with in-flight queries) and only takes the write lock — the same
// exclusion as mutations — when a compaction is actually due. It
// reports whether a compaction ran.
func (s *server) maybeCompact() bool {
	s.mu.RLock()
	due := s.eng.NeedsCompaction()
	s.mu.RUnlock()
	if !due {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Compact()
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("/edge", s.instrument("edge", s.handleEdge))
	mux.HandleFunc("/edges", s.instrument("edges", s.handleEdges))
	mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	return mux
}

// pathJSON serializes a witness path.
type pathJSON struct {
	Vertices []int  `json:"vertices"`
	Word     string `json:"word"`
}

func toPathJSON(p *graph.Path) *pathJSON {
	if p == nil {
		return nil
	}
	return &pathJSON{Vertices: p.Vertices, Word: p.Word()}
}

type queryRequest struct {
	X          int  `json:"x"`
	Y          int  `json:"y"`
	ExistsOnly bool `json:"exists_only"`
	Trace      bool `json:"trace"`
}

type queryResponse struct {
	Found bool             `json:"found"`
	Path  *pathJSON        `json:"path,omitempty"`
	Trace *rspq.QueryTrace `json:"trace,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	buf := s.readRequest(w, r, func(b []byte) error { return decodeQuery(b, &req) })
	if buf == nil {
		return
	}
	defer s.putBuf(buf)
	if r.URL.RawQuery != "" {
		if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
			req.Trace = true
		}
	}
	s.inflightPairs.Add(1)
	defer s.inflightPairs.Add(-1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if req.Trace || (s.slowQuery > 0 && !req.ExistsOnly) {
		// A traced query always runs the full solve; exists_only merely
		// drops the witness from the response. With -slow-query on, full
		// solves are traced as well (the trace is returned only when
		// asked for) so a slow request's log line can say why.
		res, tr := s.eng.SolveTraced(req.X, req.Y)
		if rec, ok := w.(*statusRecorder); ok {
			rec.trace = tr
		}
		resp := queryResponse{Found: res.Found}
		if req.Trace {
			resp.Trace = tr
		}
		if !req.ExistsOnly {
			resp.Path = toPathJSON(res.Path)
		}
		writeJSON(w, resp)
		return
	}
	if req.ExistsOnly {
		writeAnswer(w, buf, appendQuery((*buf)[:0], s.eng.Exists(req.X, req.Y), nil))
		return
	}
	res := s.eng.Solve(req.X, req.Y)
	writeAnswer(w, buf, appendQuery((*buf)[:0], res.Found, res.Path))
}

// batchRequest is the /batch body; the answer is appendBatch's.
type batchRequest struct {
	Pairs      []queryRequest `json:"pairs"`
	ExistsOnly bool           `json:"exists_only"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	buf := s.readRequest(w, r, func(b []byte) error { return decodeBatch(b, &req) })
	if buf == nil {
		return
	}
	defer s.putBuf(buf)
	release, ok := s.admitPairs(w, len(req.Pairs))
	if !ok {
		return
	}
	defer release()
	pairs := make([]rspq.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = rspq.Pair{X: p.X, Y: p.Y}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if req.ExistsOnly {
		writeAnswer(w, buf, appendBatch((*buf)[:0], nil, s.eng.BatchSolveExists(pairs)))
		return
	}
	writeAnswer(w, buf, appendBatch((*buf)[:0], s.eng.BatchSolve(pairs), nil))
}

type edgeRequest struct {
	From  int    `json:"from"`
	Label string `json:"label"`
	To    int    `json:"to"`
}

func (s *server) handleEdge(w http.ResponseWriter, r *http.Request) {
	var req edgeRequest
	buf := s.readRequest(w, r, func(b []byte) error { return decodeEdge(b, &req) })
	if buf == nil {
		return
	}
	s.putBuf(buf)
	if len(req.Label) != 1 {
		httpError(w, http.StatusBadRequest, "label must be a single byte")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.g.NumVertices()
	if req.From < 0 || req.From >= n || req.To < 0 || req.To >= n {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("vertex out of range [0,%d)", n))
		return
	}
	if !s.g.HasEdge(req.From, req.Label[0], req.To) {
		// Write-ahead: the insert is acknowledged only once its WAL
		// record is durable (per the -fsync policy). A duplicate add is
		// a no-op and is neither logged nor applied, so replay sees
		// exactly the effective mutations and reproduces the epoch.
		if !s.logOps(w, []persist.Op{{Kind: persist.OpAddEdge, From: req.From, Label: req.Label[0], To: req.To}}) {
			return
		}
		s.g.AddEdge(req.From, req.Label[0], req.To)
	}
	writeJSON(w, map[string]any{"epoch": s.g.Epoch(), "edges": s.g.NumEdges()})
}

// logOps appends one effective mutation batch to the WAL when
// persistence is on; on failure it answers 503 (the mutation must not
// be applied or acknowledged) and reports false. Callers hold the
// write lock.
func (s *server) logOps(w http.ResponseWriter, ops []persist.Op) bool {
	if s.db == nil || len(ops) == 0 {
		return true
	}
	if _, err := s.db.LogBatch(ops); err != nil {
		log.Printf("rspqd: wal append: %v", err)
		httpError(w, http.StatusServiceUnavailable, "write-ahead log append failed: "+err.Error())
		return false
	}
	return true
}

// edgesRequest is one bulk delta: edges to add and edges to remove,
// applied together under a single write-lock acquisition.
type edgesRequest struct {
	Add    []edgeRequest `json:"add,omitempty"`
	Remove []edgeRequest `json:"remove,omitempty"`
}

// edgesResponse reports what the delta did: how many adds inserted a
// new edge (duplicates are no-ops), how many removes hit an existing
// edge, and the epoch/edge-count after the batch.
type edgesResponse struct {
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Epoch   uint64 `json:"epoch"`
	Edges   int    `json:"edges"`
}

// handleEdges applies a bulk edge delta. The whole batch is validated
// before anything is applied, so a bad entry rejects the batch instead
// of leaving it half-applied; removals of absent edges are tolerated
// no-ops (tombstone semantics), matching graph.RemoveEdge.
func (s *server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var req edgesRequest
	buf := s.readRequest(w, r, func(b []byte) error { return decodeEdges(b, &req) })
	if buf == nil {
		return
	}
	s.putBuf(buf)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.g.NumVertices()
	// Entries are numbered across the adds and then the removes.
	for i, list := range [][]edgeRequest{req.Add, req.Remove} {
		for j, e := range list {
			if len(e.Label) != 1 {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: label must be a single byte", i*len(req.Add)+j))
				return
			}
			if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: vertex out of range [0,%d)", i*len(req.Add)+j, n))
				return
			}
		}
	}
	// Reduce the batch to its effective ops — adds that will insert
	// (not present, not already added earlier in this batch) and
	// removes that will hit (present or just added, not already removed
	// in this batch) — then write-ahead log exactly those before
	// applying. Replaying the log therefore reproduces both the edge
	// set and the mutation epoch: no-ops never reach either timeline.
	type edgeKey struct {
		from, to int
		label    byte
	}
	var ops []persist.Op
	added := make(map[edgeKey]bool)
	var resp edgesResponse
	for _, e := range req.Add {
		k := edgeKey{e.From, e.To, e.Label[0]}
		if !added[k] && !s.g.HasEdge(e.From, e.Label[0], e.To) {
			added[k] = true
			ops = append(ops, persist.Op{Kind: persist.OpAddEdge, From: e.From, Label: e.Label[0], To: e.To})
			resp.Added++
		}
	}
	removed := make(map[edgeKey]bool)
	for _, e := range req.Remove {
		k := edgeKey{e.From, e.To, e.Label[0]}
		present := added[k] || s.g.HasEdge(e.From, e.Label[0], e.To)
		if present && !removed[k] {
			removed[k] = true
			ops = append(ops, persist.Op{Kind: persist.OpRemoveEdge, From: e.From, Label: e.Label[0], To: e.To})
			resp.Removed++
		}
	}
	if !s.logOps(w, ops) {
		return
	}
	if _, err := persist.ApplyOps(s.g, ops); err != nil {
		// Cannot happen for ops validated above; fail loudly if it does.
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp.Epoch = s.g.Epoch()
	resp.Edges = s.g.NumEdges()
	writeJSON(w, resp)
}

type statsResponse struct {
	Pattern       string           `json:"pattern"`
	Vertices      int              `json:"vertices"`
	Edges         int              `json:"edges"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Engine        rspq.EngineStats `json:"engine"`
	// Persist mirrors the rspq_wal_*/rspq_recovery_*/rspq_checkpoint_*
	// series on /metrics; omitted when -data-dir is off.
	Persist *persist.Stats `json:"persist,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := statsResponse{
		Pattern:       s.pattern,
		Vertices:      s.g.NumVertices(),
		Edges:         s.g.NumEdges(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Engine:        s.eng.Stats(),
	}
	if s.db != nil {
		st := s.db.Stats()
		resp.Persist = &st
	}
	writeJSON(w, resp)
}

// healthzResponse is the liveness probe payload: enough to tell what
// is running (build info), what it serves (pattern, sizes, partition)
// and how far it has advanced (epoch, uptime) — without touching the
// engine's caches.
type healthzResponse struct {
	Status         string  `json:"status"`
	GoVersion      string  `json:"go_version"`
	Revision       string  `json:"revision,omitempty"`
	Pattern        string  `json:"pattern"`
	Vertices       int     `json:"vertices"`
	Edges          int     `json:"edges"`
	Epoch          uint64  `json:"epoch"`
	PendingAdds    int     `json:"pending_adds"`
	PendingRemoves int     `json:"pending_removes"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	// Durability state: whether -data-dir is on, whether this boot
	// recovered from a snapshot, and the last acknowledged WAL
	// sequence number — restart_smoke.sh asserts these across kill -9.
	Durable   bool   `json:"durable"`
	WarmStart bool   `json:"warm_start"`
	WALSeq    uint64 `json:"wal_seq"`
}

// buildRevision reports the VCS revision baked into the binary, "" for
// non-VCS builds (tests, go run from a dirty tree without stamping).
func buildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	adds, removes := s.g.PendingDelta()
	resp := healthzResponse{
		Status:         "ok",
		GoVersion:      runtime.Version(),
		Revision:       buildRevision(),
		Pattern:        s.pattern,
		Vertices:       s.g.NumVertices(),
		Edges:          s.g.NumEdges(),
		Epoch:          s.g.Epoch(),
		PendingAdds:    adds,
		PendingRemoves: removes,
		UptimeSeconds:  time.Since(s.started).Seconds(),
	}
	if s.db != nil {
		resp.Durable = true
		resp.WarmStart = s.db.WarmStart()
		resp.WALSeq = s.db.LastSeq()
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("rspqd: write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// checkFlags rejects command lines the server cannot start on; main
// turns the error into a usage message and exit status 2.
func checkFlags(pattern, graphPath string, gen int) error {
	if pattern == "" || (graphPath == "" && gen <= 0) {
		return errors.New("-pattern and one of -graph / -gen are required")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	graphPath := flag.String("graph", "", "path to a graph file (n/e line format)")
	pattern := flag.String("pattern", "", "regular expression defining the language")
	gen := flag.Int("gen", 0, "generate a random 3-regular demo graph with this many vertices instead of -graph")
	genLabels := flag.String("gen-labels", "abc", "labels for the generated graph")
	seed := flag.Int64("seed", 1, "seed for the generated graph")
	tableBytes := flag.Int64("table-bytes", 0, "pruning-table cache budget (0 = default 64 MiB, negative disables)")
	resultBytes := flag.Int64("result-bytes", 0, "result cache budget (0 = default 16 MiB, negative disables)")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	compactDelta := flag.Int("compact-delta", 0, "pending-delta watermark triggering a background compaction (0 = engine default, negative disables the compactor)")
	compactEvery := flag.Duration("compact-every", 250*time.Millisecond, "background compaction poll interval")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "log requests taking at least this long (0 disables); while on, full /query solves are traced so their slow lines carry tier, cache verdicts and table size")
	maxInflight := flag.Int64("max-inflight", 0, "reject /batch with 429 when admitted in-flight pairs would exceed this (0 = unbounded)")
	dataDir := flag.String("data-dir", "", "durable data directory (snapshot + write-ahead log); warm-boots from it when a snapshot exists, empty disables persistence")
	fsyncPolicy := flag.String("fsync", "batch", `fsync policy for WAL appends: "batch" (fsync every acknowledged batch), "off", or a group-commit window duration like "5ms"; a checkpoint always syncs, because it truncates the WAL it supersedes`)
	flag.Parse()

	if err := checkFlags(*pattern, *graphPath, *gen); err != nil {
		fmt.Fprintln(os.Stderr, "rspqd:", err)
		flag.Usage()
		os.Exit(2)
	}

	// loadGraph is the cold path: parse -graph or generate -gen. With
	// -data-dir it becomes the persist bootstrap, which only runs when
	// no snapshot exists yet — a warm boot maps the snapshot and
	// replays the WAL tail instead.
	loadGraph := func() (*graph.Graph, error) {
		if *graphPath != "" {
			f, err := os.Open(*graphPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ReadText(f)
		}
		return graph.RandomRegular(*gen, []byte(*genLabels), 3, *seed), nil
	}

	cfg := rspq.EngineConfig{
		TableBytes:   *tableBytes,
		ResultBytes:  *resultBytes,
		Workers:      *workers,
		CompactDelta: *compactDelta,
	}
	var g *graph.Graph
	var db *persist.DB
	if *dataDir != "" {
		policy, err := persist.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("rspqd: %v", err)
		}
		cfg.Metrics = metrics.NewRegistry()
		db, g, err = persist.Open(persist.Options{
			Dir:       *dataDir,
			Sync:      policy,
			Bootstrap: loadGraph,
			Metrics:   cfg.Metrics,
		})
		if err != nil {
			log.Fatalf("rspqd: open %s: %v", *dataDir, err)
		}
		gp := g
		cfg.Checkpoint = func() {
			if err := db.Checkpoint(gp); err != nil {
				log.Printf("rspqd: checkpoint: %v", err)
			}
		}
		st := db.Stats()
		boot := "cold bootstrap"
		if db.WarmStart() {
			boot = fmt.Sprintf("warm boot (+%d WAL records)", st.WALReplayed)
		}
		log.Printf("rspqd: %s from %s in %.3fs (fsync=%s, wal seq %d)",
			boot, *dataDir, st.RecoverySeconds, st.Fsync, st.WALSeq)
	} else {
		var err error
		if g, err = loadGraph(); err != nil {
			log.Fatalf("rspqd: %v", err)
		}
	}

	s, err := rspq.NewSolver(*pattern)
	if err != nil {
		log.Fatalf("rspqd: compile %q: %v", *pattern, err)
	}
	srv := newServer(s, g, *pattern, cfg)
	srv.db = db
	srv.slowQuery = *slowQuery
	srv.maxInflight = *maxInflight
	if *debugAddr != "" {
		// pprof rides its own mux on its own listener: profiling stays
		// opt-in and the query port never exposes /debug.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("rspqd: pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("rspqd: pprof listener: %v", err)
			}
		}()
	}
	log.Printf("rspqd: serving %q over %d vertices / %d edges (%s tier) on %s",
		*pattern, g.NumVertices(), g.NumEdges(), s.ChooseAlgorithm(g), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var compactor sync.WaitGroup
	if *compactDelta >= 0 {
		compactor.Add(1)
		go func() {
			defer compactor.Done()
			srv.compactLoop(ctx, *compactEvery)
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("rspqd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal during the drain kills the process the default way
	log.Printf("rspqd: shutdown signal received; draining for up to %s", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rspqd: drain: %v", err)
	}
	compactor.Wait() // the compaction goroutine finishes its cycle and exits
	if db != nil {
		// Fold the WAL tail into a final snapshot so the next boot maps
		// one file and replays nothing; with a group-commit window the
		// checkpoint also makes the last acknowledged batches durable.
		srv.mu.Lock()
		if db.Dirty() {
			if err := db.Checkpoint(g); err != nil {
				log.Printf("rspqd: final checkpoint: %v", err)
			}
		}
		srv.mu.Unlock()
		if err := db.Close(); err != nil {
			log.Printf("rspqd: close data dir: %v", err)
		}
	}
	adds, removes := g.PendingDelta()
	log.Printf("rspqd: drained; exiting with delta (%d adds, %d removes) pending", adds, removes)
}
