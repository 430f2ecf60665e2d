package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// scrape fetches /metrics and parses the exposition into a map keyed
// exactly like the sample lines ("name{labels}" → value), skipping
// comments.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d; want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q; want text/plain", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumPrefix adds up every sample whose key starts with prefix (all
// label combinations of one family).
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// TestMetricsEndpoint pins the exposition basics: the per-tier query
// counter moves with traffic, the latency histogram's _count agrees
// with it, and the transport series record the scrape itself.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, nil)
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, nil)

	m := scrape(t, ts.URL)
	if got := sumPrefix(m, "rspq_queries_total{"); got != 2 {
		t.Fatalf("rspq_queries_total sums to %v; want 2", got)
	}
	if got := m[`rspq_queries_total{tier="dag"}`]; got != 2 {
		t.Fatalf("dag tier counter = %v; want 2 (quickstart graph is acyclic)", got)
	}
	if got := sumPrefix(m, "rspq_query_seconds_count{"); got != 2 {
		t.Fatalf("latency histogram count sums to %v; want 2", got)
	}
	if got := m[`rspq_stage_seconds_count{stage="pin"}`]; got != 2 {
		t.Fatalf("pin stage count = %v; want 2", got)
	}
	if got := m[`rspqd_http_requests_total{endpoint="query",code="2xx"}`]; got != 2 {
		t.Fatalf("http query counter = %v; want 2", got)
	}
	// The scrape that produced m was itself in flight, so its own
	// request counter may not include it yet; a second scrape must.
	m2 := scrape(t, ts.URL)
	if got := m2[`rspqd_http_requests_total{endpoint="metrics",code="2xx"}`]; got < 1 {
		t.Fatalf("metrics endpoint counter = %v; want >= 1", got)
	}
	if got := m2["rspqd_inflight_pairs"]; got != 0 {
		t.Fatalf("inflight pairs at rest = %v; want 0", got)
	}
}

// TestStatsMetricsAgree drives a mixed query/mutation/compaction
// sequence and then asserts that every counter /stats reports equals
// the corresponding /metrics sample — the two surfaces are reads over
// the same registry and must never disagree.
func TestStatsMetricsAgree(t *testing.T) {
	srv, ts := testServer(t)
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, nil)
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, nil) // result-cache hit
	postJSON(t, ts.URL+"/query", `{"x":1,"y":3,"exists_only":true}`, nil)
	postJSON(t, ts.URL+"/batch", `{"pairs":[{"x":0,"y":3},{"x":2,"y":3},{"x":3,"y":0}]}`, nil)
	postJSON(t, ts.URL+"/edge", `{"from":3,"label":"c","to":0}`, nil)
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, nil)
	postJSON(t, ts.URL+"/edges", `{"add":[{"from":2,"label":"c","to":0}],"remove":[{"from":0,"label":"a","to":1}]}`, nil)
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, nil)
	srv.mu.Lock()
	srv.eng.Compact()
	srv.mu.Unlock()
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, nil)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, ts.URL)

	eq := func(name string, stats float64, sample float64) {
		t.Helper()
		if stats != sample {
			t.Fatalf("%s: /stats says %v, /metrics says %v", name, stats, sample)
		}
	}
	e := st.Engine
	eq("queries", float64(e.Queries), sumPrefix(m, "rspq_queries_total{"))
	eq("batches", float64(e.Batches), m["rspq_batches_total"])
	eq("batch_pairs", float64(e.BatchPairs), m["rspq_batch_pairs_total"])
	eq("snapshot_rebuilds", float64(e.SnapshotRebuilds), m["rspq_snapshot_rebuilds_total"])
	eq("epoch", float64(e.Epoch), m["rspq_epoch"])
	eq("full_freezes", float64(e.FullFreezes), m[`rspq_freezes_total{kind="full"}`])
	eq("incremental_freezes", float64(e.IncrementalFreezes), m[`rspq_freezes_total{kind="incremental"}`])
	eq("overlay_reads", float64(e.OverlayReads), m[`rspq_reads_total{view="overlay"}`])
	eq("pass_through_reads", float64(e.PassThroughReads), m[`rspq_reads_total{view="pass_through"}`])
	eq("exchange_rounds", float64(e.ExchangeRounds), m["rspq_kernel_rounds_total"])
	eq("bit_parallel_hits", float64(e.BitParallelHits), m["rspq_bit_parallel_hits_total"])
	eq("stopped_sweeps", float64(e.StoppedSweeps), m["rspq_sweeps_stopped_total"])
	eq("compactions", float64(e.Compactions), m["rspq_compactions_total"])
	eq("compaction_merged_edges", float64(e.CompactionMergedEdges), m["rspq_compaction_merged_edges_total"])
	eq("last_compaction_seconds", e.LastCompactionSeconds, m["rspq_last_compaction_seconds"])
	eq("compact_watermark", float64(e.CompactWatermark), m["rspq_compact_watermark"])
	eq("compact_headroom", float64(e.CompactHeadroom), m["rspq_compact_headroom"])
	eq("pending_adds", float64(e.PendingAdds), m[`rspq_pending_delta{kind="adds"}`])
	eq("pending_removes", float64(e.PendingRemoves), m[`rspq_pending_delta{kind="removes"}`])
	eq("last_freeze_seconds", e.LastFreezeSeconds, m["rspq_last_freeze_seconds"])
	eq("tables.hits", float64(e.Tables.Hits), m[`rspq_cache_hits_total{cache="tables"}`])
	eq("tables.misses", float64(e.Tables.Misses), m[`rspq_cache_misses_total{cache="tables"}`])
	eq("results.hits", float64(e.Results.Hits), m[`rspq_cache_hits_total{cache="results"}`])
	eq("results.misses", float64(e.Results.Misses), m[`rspq_cache_misses_total{cache="results"}`])
	eq("results.bytes", float64(e.Results.Bytes), m[`rspq_cache_bytes{cache="results"}`])
	eq("results.entries", float64(e.Results.Entries), m[`rspq_cache_entries{cache="results"}`])

	if e.Queries == 0 || e.Compactions == 0 || e.OverlayReads == 0 || e.StoppedSweeps == 0 || e.ExchangeRounds == 0 {
		t.Fatalf("sequence must exercise queries, compaction, overlay reads, stopped sweeps and kernel rounds: %+v", e)
	}
	if e.CompactionMergedEdges == 0 {
		t.Fatalf("compaction must report merged delta edges: %+v", e)
	}
	if e.CompactHeadroom < 0 && e.CompactWatermark > 0 {
		t.Fatalf("headroom must be non-negative under an enabled watermark: %+v", e)
	}
}

// TestQueryTrace exercises SolveTraced over HTTP: both the ?trace=1
// query parameter and the body flag return stage timings and kernel
// rounds, a found pair's sweep stops at its source's level while a
// source with no path builds the goal table the next source hits, and
// a repeated query shows up as a result-cache hit.
func TestQueryTrace(t *testing.T) {
	_, ts := testServer(t)
	var resp queryResponse
	postJSON(t, ts.URL+"/query?trace=1", `{"x":0,"y":3}`, &resp)
	if !resp.Found || resp.Trace == nil {
		t.Fatalf("traced query = %+v; want found with trace", resp)
	}
	tr := resp.Trace
	if tr.Tier != "dag" || tr.X != 0 || tr.Y != 3 {
		t.Fatalf("trace header = %+v; want dag tier, x=0, y=3", tr)
	}
	if tr.Overlay || tr.PendingAdds != 0 || tr.PendingRemoves != 0 {
		t.Fatalf("frozen graph: overlay=%v pending=(%d,%d); want a pass-through view with no delta",
			tr.Overlay, tr.PendingAdds, tr.PendingRemoves)
	}
	if tr.TotalNanos <= 0 {
		t.Fatalf("trace total = %d; want > 0", tr.TotalNanos)
	}
	stages := make(map[string]bool, len(tr.Stages))
	for _, stg := range tr.Stages {
		stages[stg.Stage] = true
	}
	if !stages["pin"] || !stages["kernel"] {
		t.Fatalf("trace stages = %+v; want at least pin and kernel", tr.Stages)
	}
	if len(tr.Rounds) == 0 {
		t.Fatalf("fresh traced query must record kernel rounds: %+v", tr)
	}
	if tr.Shards != 1 {
		t.Fatalf("unsharded server: the sweep ran over %d shards, want the single inline shard", tr.Shards)
	}
	// The DAG tier's sweep stopped once the source was answered: 0 sits
	// three levels from the goal, so it ran two rounds and left no table.
	if tr.StoppedAt != 3 || len(tr.Rounds) != 2 || tr.TableCacheHit || tr.TableStates != 0 || tr.TableBytes != 0 {
		t.Fatalf("stopped sweep: stopped_at=%d after %d rounds, table_cache_hit=%v table_states=%d table_bytes=%d",
			tr.StoppedAt, len(tr.Rounds), tr.TableCacheHit, tr.TableStates, tr.TableBytes)
	}
	// A source with no path runs the sweep to the end, and that sweep is
	// the goal table: the trace says how many product states it reached
	// and what the table cache retains for it.
	var none queryResponse
	postJSON(t, ts.URL+"/query?trace=1", `{"x":2,"y":3}`, &none)
	nt := none.Trace
	if none.Found || nt == nil || nt.StoppedAt != 0 || nt.TableCacheHit || nt.TableStates < 2 || nt.TableBytes <= 0 {
		t.Fatalf("unreachable source: found=%v trace %+v; want a built goal table and no stop", none.Found, nt)
	}
	var other queryResponse
	postJSON(t, ts.URL+"/query?trace=1", `{"x":1,"y":3}`, &other)
	if o := other.Trace; !other.Found || o == nil || !o.TableCacheHit || o.TableStates != nt.TableStates || o.TableBytes != nt.TableBytes || o.StoppedAt != 0 {
		t.Fatalf("third source on the same target: trace %+v; want a hit on the table of %d states / %d bytes",
			other.Trace, nt.TableStates, nt.TableBytes)
	}

	// The body flag is equivalent to the query parameter, and the
	// repeat is served from the result cache: no kernel rounds.
	var again queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3,"trace":true}`, &again)
	if again.Trace == nil || !again.Trace.ResultCacheHit {
		t.Fatalf("repeat trace = %+v; want result_cache_hit", again.Trace)
	}
	if len(again.Trace.Rounds) != 0 || again.Trace.Shards != 0 {
		t.Fatalf("cache-served trace must have no kernel rounds and no shard count: %+v", again.Trace)
	}

	// Untraced queries must not pay for or return a trace.
	var plain queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, &plain)
	if plain.Trace != nil {
		t.Fatal("untraced query returned a trace")
	}

	// After a write inside the frozen alphabet the read pins an overlay,
	// and the trace says how large a delta it overlays.
	var er edgesResponse
	postJSON(t, ts.URL+"/edges", `{"add":[{"from":0,"label":"b","to":2},{"from":0,"label":"a","to":3}],"remove":[{"from":1,"label":"b","to":2}]}`, &er)
	if er.Added != 2 || er.Removed != 1 {
		t.Fatalf("edges response = %+v; want 2 added, 1 removed", er)
	}
	var churned queryResponse
	postJSON(t, ts.URL+"/query?trace=1", `{"x":0,"y":3}`, &churned)
	if c := churned.Trace; c == nil || !c.Overlay || c.PendingAdds != 2 || c.PendingRemoves != 1 {
		t.Fatalf("trace after a write = %+v; want an overlay view with pending_adds=2 pending_removes=1", churned.Trace)
	}
}

// TestQueryTraceSummaryTier pins that a summary-tier query is traced
// like any other: its co-reachability sweep runs on the same round
// driver as the product sweeps, so the trace carries one timed entry per
// round, as many as the engine's round counter moved, and the number of
// shards the sweep ran over — 1 for the unsharded server (the single
// shard swept inline), the configured count otherwise.
func TestQueryTraceSummaryTier(t *testing.T) {
	for _, shards := range []int{0, 3} {
		g := graph.New(5)
		g.AddEdge(0, 'a', 1)
		g.AddEdge(1, 'b', 2)
		g.AddEdge(2, 'b', 3)
		g.AddEdge(3, 'c', 4)
		g.AddEdge(4, 'a', 0) // a cycle keeps dispatch off the DAG tier
		s, err := rspq.NewSolver("a*(bb+|())c*")
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(s, g, "a*(bb+|())c*", rspq.EngineConfig{Shards: shards})
		ts := httptest.NewServer(srv.routes())
		var resp queryResponse
		postJSON(t, ts.URL+"/query?trace=1", `{"x":0,"y":4}`, &resp)
		ts.Close()
		tr := resp.Trace
		if !resp.Found || tr == nil || tr.Tier != "summary" {
			t.Fatalf("shards=%d: traced query = %+v; want found on the summary tier", shards, resp)
		}
		if rounds := srv.eng.Stats().ExchangeRounds; len(tr.Rounds) == 0 || int64(len(tr.Rounds)) != rounds {
			t.Fatalf("shards=%d: %d round entries for %d exchange rounds", shards, len(tr.Rounds), rounds)
		}
		for _, rd := range tr.Rounds {
			if rd.Frontier <= 0 || rd.Nanos <= 0 {
				t.Fatalf("shards=%d: round %+v; want a frontier and a wall time", shards, rd)
			}
		}
		if want := max(shards, 1); tr.Shards != want {
			t.Fatalf("shards=%d: trace says the sweep ran over %d shards, want %d", shards, tr.Shards, want)
		}
	}
}

// TestSlowQueryLine pins what -slow-query logs for /query: with the
// threshold on, a full solve is traced without being asked to (and the
// trace stays out of the response), so the slow line carries the tier,
// the pin time and pending delta of the view it read, the cache
// verdicts, the goal table's reached-state count and retained bytes, and
// the level a stopped sweep stopped at — a found pair stops and builds
// no table, a pair with no path runs to the end and builds one; an
// exists_only request keeps its cheaper path and logs the bare line.
func TestSlowQueryLine(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	s, err := rspq.NewSolver("a*(bb+|())c*")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(s, g, "a*(bb+|())c*", rspq.EngineConfig{})
	srv.slowQuery = time.Nanosecond // every request is slow
	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ts := httptest.NewServer(srv.routes())

	var resp queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, &resp)
	if !resp.Found || resp.Trace != nil {
		t.Fatalf("untraced query under -slow-query = %+v; want found, no trace in the response", resp)
	}
	postJSON(t, ts.URL+"/query", `{"x":2,"y":3}`, &resp)
	postJSON(t, ts.URL+"/query", `{"x":1,"y":3,"exists_only":true}`, &resp)
	ts.Close() // the slow line is logged after the response: wait for the handlers to return

	var detailed []string
	bare := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(line, "slow request") || !strings.Contains(line, "endpoint=/query") {
			t.Fatalf("unexpected log line %q", line)
		}
		if !strings.Contains(line, "tier=") {
			bare++
			continue
		}
		detailed = append(detailed, line)
	}
	if len(detailed) != 2 || bare != 1 {
		t.Fatalf("log = %q; want two detailed lines (the full solves) and one bare line (exists_only)", buf.String())
	}
	for i, re := range slowDetailRE {
		if !re.MatchString(detailed[i]) {
			t.Fatalf("slow line %q does not match %v", detailed[i], re)
		}
	}
}

// slowDetailRE matches the detailed slow lines of TestSlowQueryLine: the
// sweep that stopped at its source's level, then the one that ran to the
// end and built the goal table.
var slowDetailRE = []*regexp.Regexp{
	regexp.MustCompile(` tier=dag pin_us=[0-9]+ pending=0 result_cache_hit=false table_cache_hit=false table_states=0 table_bytes=0 stopped_at=3$`),
	regexp.MustCompile(` tier=dag pin_us=[0-9]+ pending=0 result_cache_hit=false table_cache_hit=false table_states=[1-9][0-9]* table_bytes=[1-9][0-9]* stopped_at=0$`),
}

// TestBatchAdmission pins the -max-inflight gate: an oversized batch
// is rejected with 429 + Retry-After and counted, an in-budget batch
// passes, and the reservation is released either way.
func TestBatchAdmission(t *testing.T) {
	// Build the server by hand so the admission bound is set before any
	// handler goroutine can read it (as main() does via -max-inflight).
	g := graph.New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	s, err := rspq.NewSolver("a*(bb+|())c*")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(s, g, "a*(bb+|())c*", rspq.EngineConfig{})
	srv.maxInflight = 2
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/batch", `{"pairs":[{"x":0,"y":3},{"x":1,"y":3},{"x":2,"y":3}]}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status %d; want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var ok batchResponse
	if r := postJSON(t, ts.URL+"/batch", `{"pairs":[{"x":0,"y":3},{"x":3,"y":0}]}`, &ok); r.StatusCode != http.StatusOK {
		t.Fatalf("in-budget batch: status %d; want 200", r.StatusCode)
	}
	if len(ok.Results) != 2 || !ok.Results[0].Found || ok.Results[1].Found {
		t.Fatalf("in-budget batch results = %+v", ok.Results)
	}
	if got := srv.inflightPairs.Load(); got != 0 {
		t.Fatalf("inflight pairs after requests = %d; want 0", got)
	}
	m := scrape(t, ts.URL)
	if m["rspqd_batch_rejected_total"] != 1 {
		t.Fatalf("rejected counter = %v; want 1", m["rspqd_batch_rejected_total"])
	}
	if m[`rspqd_http_requests_total{endpoint="batch",code="4xx"}`] != 1 {
		t.Fatalf("batch 4xx counter = %v; want 1", m[`rspqd_http_requests_total{endpoint="batch",code="4xx"}`])
	}
}
