package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// testServer builds the quickstart graph (0 -a-> 1 -b-> 2 -b-> 3)
// behind an engine; the graph is acyclic so dispatch lands on the DAG
// tier until a mutation introduces a cycle.
func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	s, err := rspq.NewSolver("a*(bb+|())c*")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(s, g, "a*(bb+|())c*", rspq.EngineConfig{})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var resp queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, &resp)
	if !resp.Found || resp.Path == nil || resp.Path.Word != "abb" {
		t.Fatalf("query(0,3) = %+v; want found with word abb", resp)
	}
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, &resp)
	if resp.Found {
		t.Fatalf("query(3,0) = %+v; want not found", resp)
	}
	// Exists-only: found bit, no path.
	var exResp queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3,"exists_only":true}`, &exResp)
	if !exResp.Found || exResp.Path != nil {
		t.Fatalf("exists(0,3) = %+v; want bare found bit", exResp)
	}
	// Out-of-range ids are a no-answer, not an error.
	var oob queryResponse
	postJSON(t, ts.URL+"/query", `{"x":-5,"y":99}`, &oob)
	if oob.Found {
		t.Fatal("out-of-range query must answer found=false")
	}
}

func TestQueryBadRequests(t *testing.T) {
	srv, ts := testServer(t)
	if resp := postJSON(t, ts.URL+"/query", `{"x":0,"y":`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d; want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/query", `{"x":0,"y":1,"bogus":true}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d; want 400", resp.StatusCode)
	}
	// Anything but whitespace after the object is refused, whether the
	// scanner or encoding/json (here for the case-folded "X") decoded it.
	for _, c := range []struct{ path, body string }{
		{"/query", `{"x":0,"y":3}{"x":9}`},
		{"/query", `{"x":0,"y":3} garbage`},
		{"/query", `{"X":0,"y":3} garbage`},
		{"/batch", `{"pairs":[{"x":0,"y":3}]}]`},
		{"/edge", `{"from":3,"label":"c","to":0}{}`},
		{"/edges", `{"add":[{"from":3,"label":"c","to":0}]} x`},
	} {
		var e map[string]string
		if resp := postJSON(t, ts.URL+c.path, c.body, &e); resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "after top-level value") {
			t.Fatalf("%s %s: status %d %q; want 400 for the trailing data", c.path, c.body, resp.StatusCode, e["error"])
		}
	}
	if srv.g.NumEdges() != 3 {
		t.Fatal("a refused mutation must not be applied")
	}
	// A body of undeclared length stops at maxBody.
	long := io.MultiReader(strings.NewReader(`{"x":0,"y":3}`), io.LimitReader(spaces{}, maxBody))
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", io.NopCloser(long)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("over-long body: status %d %s; want 400, too large", rec.Code, rec.Body)
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d; want 405", resp.StatusCode)
	}
}

type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var resp batchResponse
	postJSON(t, ts.URL+"/batch",
		`{"pairs":[{"x":0,"y":3},{"x":1,"y":3},{"x":3,"y":0},{"x":-1,"y":2}]}`, &resp)
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d; want 4", len(resp.Results))
	}
	want := []bool{true, true, false, false}
	for i, r := range resp.Results {
		if r.Found != want[i] {
			t.Fatalf("batch[%d].Found = %v; want %v", i, r.Found, want[i])
		}
	}
	var exResp batchResponse
	postJSON(t, ts.URL+"/batch",
		`{"pairs":[{"x":0,"y":3},{"x":3,"y":0}],"exists_only":true}`, &exResp)
	if len(exResp.Found) != 2 || !exResp.Found[0] || exResp.Found[1] {
		t.Fatalf("exists batch = %+v; want [true false]", exResp.Found)
	}
}

func TestEdgeMutationInvalidates(t *testing.T) {
	srv, ts := testServer(t)
	var q queryResponse
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, &q)
	if q.Found {
		t.Fatal("no path from 3 to 0 yet")
	}
	epochBefore := srv.g.Epoch()
	var e map[string]any
	postJSON(t, ts.URL+"/edge", `{"from":3,"label":"c","to":0}`, &e)
	if uint64(e["epoch"].(float64)) <= epochBefore {
		t.Fatalf("edge response epoch %v must exceed %d", e["epoch"], epochBefore)
	}
	// The cached found=false answer is keyed by the old epoch: the same
	// query must now be recomputed and succeed.
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, &q)
	if !q.Found || q.Path == nil || q.Path.Word != "c" {
		t.Fatalf("post-mutation query = %+v; want path c", q)
	}
	if resp := postJSON(t, ts.URL+"/edge", `{"from":0,"label":"zz","to":1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("multi-byte label: status %d; want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/edge", `{"from":0,"label":"a","to":99}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: status %d; want 400", resp.StatusCode)
	}
}

// TestEdgesBulkDelta drives the streaming path: a bulk delta of adds
// and removes applied in one request, answered by an incremental
// refreeze on the next query rather than a full rebuild.
func TestEdgesBulkDelta(t *testing.T) {
	srv, ts := testServer(t)
	// Warm the engine so the graph is frozen and a merge base exists.
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, nil)
	epochBefore := srv.g.Epoch()

	var resp edgesResponse
	postJSON(t, ts.URL+"/edges",
		`{"add":[{"from":3,"label":"c","to":0},{"from":0,"label":"a","to":1},{"from":0,"label":"a","to":2}],
		  "remove":[{"from":1,"label":"b","to":2},{"from":1,"label":"b","to":2}]}`, &resp)
	// One add is a duplicate no-op; the second remove hits a tombstone.
	if resp.Added != 2 || resp.Removed != 1 {
		t.Fatalf("delta = %+v; want added=2 removed=1", resp)
	}
	if resp.Epoch <= epochBefore || resp.Edges != 4 {
		t.Fatalf("delta = %+v; want bumped epoch and 4 edges", resp)
	}

	// The removed edge breaks 0→3; the added edge opens 3→0.
	var q queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, &q)
	if q.Found {
		t.Fatal("path 0→3 must be gone after removing (1,b,2)")
	}
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, &q)
	if !q.Found || q.Path == nil || q.Path.Word != "c" {
		t.Fatalf("post-delta query(3,0) = %+v; want path c", q)
	}
	// The first delta introduced label 'c', an alphabet change past the
	// overlay regime, so that pin was a (correct) synchronous rebuild. A
	// second delta within the now-known alphabet must be served through
	// an overlay view — no freeze on the query path, delta left pending
	// for the background compactor.
	postJSON(t, ts.URL+"/edges", `{"add":[{"from":2,"label":"c","to":0}],"remove":[{"from":0,"label":"a","to":1}]}`, &resp)
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, &q)
	if !q.Found {
		t.Fatal("3 -c-> 0 must survive the second delta")
	}
	if adds, removes := srv.g.PendingDelta(); adds+removes == 0 {
		t.Fatal("same-alphabet delta must be served as a pending overlay, not frozen by the query")
	}
	st := srv.eng.Stats()
	if st.OverlayReads == 0 {
		t.Fatalf("expected overlay-served queries, got %+v", st)
	}
	// The compactor's write-locked merge drains the delta off the query
	// path; answers are unchanged. (The watermark poll wouldn't trigger
	// on a 2-edge delta, so compact directly under the same lock.)
	srv.mu.Lock()
	compacted := srv.eng.Compact()
	srv.mu.Unlock()
	if !compacted {
		t.Fatal("compaction must report work with a pending delta")
	}
	if adds, removes := srv.g.PendingDelta(); adds+removes != 0 {
		t.Fatalf("compaction must drain the delta, still (%d,%d)", adds, removes)
	}
	postJSON(t, ts.URL+"/query", `{"x":3,"y":0}`, &q)
	if !q.Found {
		t.Fatal("3 -c-> 0 must survive compaction")
	}

	// Validation rejects the whole batch before applying anything.
	edgesBefore := srv.g.NumEdges()
	if r := postJSON(t, ts.URL+"/edges",
		`{"add":[{"from":0,"label":"a","to":2},{"from":0,"label":"a","to":99}]}`, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range entry: status %d; want 400", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/edges",
		`{"remove":[{"from":0,"label":"zz","to":1}]}`, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("multi-byte label: status %d; want 400", r.StatusCode)
	}
	if srv.g.NumEdges() != edgesBefore {
		t.Fatal("rejected batches must not be partially applied")
	}
}

// TestHealthzEndpoint pins the liveness probe: GET-only, build info,
// sizes and epoch, advancing with mutations.
func TestHealthzEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.GoVersion == "" || hz.Pattern == "" {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Vertices != 4 || hz.Edges != 3 {
		t.Fatalf("healthz = %+v; want 4 vertices, 3 edges", hz)
	}
	epochBefore := hz.Epoch
	postJSON(t, ts.URL+"/edge", `{"from":3,"label":"c","to":0}`, nil)
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Epoch <= epochBefore {
		t.Fatalf("healthz epoch %d must advance past %d", hz.Epoch, epochBefore)
	}
	if r := postJSON(t, ts.URL+"/healthz", `{}`, nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d; want 405", r.StatusCode)
	}
	_ = srv
}

// TestServerSweepStats drives the engine end to end over HTTP: queries
// agree with a solver on a separately built copy of the graph, and
// /stats surfaces the sweeps (rounds, packed-driver dispatches).
func TestServerSweepStats(t *testing.T) {
	g := graph.Random(30, []byte{'a', 'b', 'c'}, 0.12, 9)
	ref := graph.New(30)
	for _, e := range g.Edges() {
		ref.AddEdge(e.From, e.Label, e.To)
	}
	s, err := rspq.NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(s, g, "a*c*", rspq.EngineConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	for x := 0; x < 30; x += 3 {
		for y := 0; y < 30; y += 4 {
			var q queryResponse
			postJSON(t, ts.URL+"/query", fmt.Sprintf(`{"x":%d,"y":%d}`, x, y), &q)
			if want := s.Solve(ref, x, y).Found; q.Found != want {
				t.Fatalf("/query(%d,%d) = %v; reference says %v", x, y, q.Found, want)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.ExchangeRounds == 0 {
		t.Fatal("queries must accumulate sweep rounds")
	}

	// An existence-only query on a fresh target runs the mark-only
	// coReach sweep, which must show up in the stats.
	var q queryResponse
	postJSON(t, ts.URL+"/query", `{"x":1,"y":26,"exists_only":true}`, &q)
	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 statsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.Engine.BitParallelHits == 0 {
		t.Fatalf("exists-only query on a fresh target must count a sweep: %+v", st2.Engine)
	}
}

// TestCheckFlags pins the start-up usage errors: a missing pattern or
// graph source.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		pattern, graphPath string
		gen                int
		ok                 bool
	}{
		{"a*", "g.txt", 0, true},
		{"a*", "", 400, true},
		{"", "g.txt", 0, false},
		{"a*", "", 0, false},
	} {
		if err := checkFlags(tc.pattern, tc.graphPath, tc.gen); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %q, %d) = %v, want ok=%v", tc.pattern, tc.graphPath, tc.gen, err, tc.ok)
		}
	}
}

// TestAdaptiveServer boots a server with the default configuration on
// a 138k-edge graph at two processors, the size and shape that get no
// special treatment: each sweep still runs on one goroutine, and
// /healthz and /stats agree on what is served.
func TestAdaptiveServer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := graph.New(46000)
	for i := 0; i < 46000; i++ {
		g.AddEdge(i, 'a', (i+1)%46000)
		g.AddEdge(i, 'b', (i+37)%46000)
		g.AddEdge(i, 'c', (i+911)%46000)
	}
	s, err := rspq.NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(s, g, "a*c*", rspq.EngineConfig{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var q queryResponse
	postJSON(t, ts.URL+"/query", `{"x":0,"y":1}`, &q)
	if !q.Found {
		t.Fatal("edge 0 -a-> 1 spells a word of a*c*")
	}
	hzResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hzResp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(hzResp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Vertices != 46000 || hz.Edges != 138000 {
		t.Fatalf("healthz = %+v; want 46000 vertices, 138000 edges", hz)
	}
	stResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Edges != hz.Edges || st.Engine.Epoch != hz.Epoch || st.Engine.BitParallelHits != 1 {
		t.Fatalf("stats %+v disagrees with healthz %+v, or ran other than one sweep", st, hz)
	}
	_ = srv
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// Two identical queries: the second must be a result-cache hit.
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, nil)
	postJSON(t, ts.URL+"/query", `{"x":0,"y":3}`, nil)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 4 || st.Edges != 3 || st.Pattern == "" {
		t.Fatalf("stats = %+v", st)
	}
	if st.Engine.Queries != 2 || st.Engine.Results.Hits == 0 {
		t.Fatalf("engine stats must show the hot hit: %+v", st.Engine)
	}
	// The quickstart graph is acyclic, so the dispatcher collapses the
	// query to the DAG tier.
	if st.Engine.Algorithm != "dag" {
		t.Fatalf("algorithm = %q; want dag", st.Engine.Algorithm)
	}
}
