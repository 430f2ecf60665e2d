// HTTP-layer observability for rspqd: the /metrics exposition, the
// per-endpoint request counters and latency histograms, slow-request
// logging, and the /batch admission gate. The server shares one
// metrics.Registry with its engine, so rspqd_* (transport) and rspq_*
// (engine/kernel) series are scraped from a single endpoint and /stats
// reads the same underlying values.
package main

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/rspq"
)

// endpoints names every route the server instruments; per-endpoint
// series are pre-registered so the request path is atomic adds only.
var endpoints = []string{"query", "batch", "edge", "edges", "stats", "healthz", "metrics"}

// endpointMetrics holds the pre-resolved handles for one route.
type endpointMetrics struct {
	ok, clientErr, serverErr *metrics.Counter // 2xx (and 3xx), 4xx, 5xx
	seconds                  *metrics.Histogram
}

// httpMetrics is the transport-level metric surface.
type httpMetrics struct {
	byEndpoint map[string]*endpointMetrics
	rejected   *metrics.Counter // /batch admission rejections (429)
	slow       *metrics.Counter // requests at/above the -slow-query threshold
}

func newHTTPMetrics(reg *metrics.Registry, inflight func() float64) httpMetrics {
	hm := httpMetrics{byEndpoint: make(map[string]*endpointMetrics, len(endpoints))}
	const reqHelp = "HTTP requests served, by endpoint and status-code class."
	for _, ep := range endpoints {
		hm.byEndpoint[ep] = &endpointMetrics{
			ok:        reg.Counter("rspqd_http_requests_total", reqHelp, "endpoint", ep, "code", "2xx"),
			clientErr: reg.Counter("rspqd_http_requests_total", reqHelp, "endpoint", ep, "code", "4xx"),
			serverErr: reg.Counter("rspqd_http_requests_total", reqHelp, "endpoint", ep, "code", "5xx"),
			seconds: reg.Histogram("rspqd_http_request_seconds",
				"HTTP request latency in seconds, by endpoint.", nil, "endpoint", ep),
		}
	}
	hm.rejected = reg.Counter("rspqd_batch_rejected_total",
		"Batches rejected by the -max-inflight admission gate (HTTP 429).")
	hm.slow = reg.Counter("rspqd_slow_requests_total",
		"Requests at or above the -slow-query logging threshold.")
	reg.GaugeFunc("rspqd_inflight_pairs",
		"Query pairs currently being answered across in-flight /query and /batch requests.",
		inflight)
	return hm
}

// statusRecorder captures the status code a handler writes so the
// instrument wrapper can classify it after the fact.
type statusRecorder struct {
	http.ResponseWriter
	code int
	// trace is set by /query when it traced the solve (on request, or
	// because -slow-query is on) so a slow line can name the cause.
	trace *rspq.QueryTrace
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route handler with request counting, latency
// observation and slow-request logging. Handles are resolved once at
// wrap time; the per-request cost is one clock pair and atomic adds,
// and the status recorder comes from a pool, since the handler's
// ResponseWriter would move it to the heap.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.hm.byEndpoint[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := s.recs.Get().(*statusRecorder)
		*rec = statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			*rec = statusRecorder{}
			s.recs.Put(rec)
		}()
		h(rec, r)
		el := time.Since(t0)
		em.seconds.ObserveDuration(el)
		switch {
		case rec.code >= 500:
			em.serverErr.Inc()
		case rec.code >= 400:
			em.clientErr.Inc()
		default:
			em.ok.Inc()
		}
		if s.slowQuery > 0 && el >= s.slowQuery {
			s.hm.slow.Inc()
			log.Printf("rspqd: slow request method=%s endpoint=/%s status=%d elapsed=%s threshold=%s%s",
				r.Method, endpoint, rec.code, el, s.slowQuery, slowDetail(rec.trace))
		}
	}
}

// slowDetail renders what a traced query adds to its slow line: which
// tier ran, what pinning its view cost and how large a delta that view
// overlays (a slow first read of an epoch was slow in the pin or in the
// sweep), the cache verdicts, when a goal table was built or hit how
// many product states its sweep reached and what the table costs to
// retain, the level at which a sweep that stopped once its source was
// answered stopped (0: it ran to the end), and how many states the
// query's sweeps turned on, stopped ones included — which tells a
// 300-state miss from one that flooded the graph whether or not it left
// a table — and how many nodes a search expanded after the shortest
// walk left the answer open (0 when the walk answered).
func slowDetail(tr *rspq.QueryTrace) string {
	if tr == nil {
		return ""
	}
	var pinNanos int64
	for _, st := range tr.Stages {
		if st.Stage == "pin" {
			pinNanos = st.Nanos
		}
	}
	return fmt.Sprintf(" tier=%s pin_us=%d pending=%d result_cache_hit=%t table_cache_hit=%t table_states=%d table_bytes=%d stopped_at=%d states_reached=%d search_nodes=%d",
		tr.Tier, pinNanos/1e3, tr.PendingAdds+tr.PendingRemoves, tr.ResultCacheHit, tr.TableCacheHit, tr.TableStates, tr.TableBytes, tr.StoppedAt, tr.StatesReached, tr.SearchNodes)
}

// admitPairs applies the -max-inflight admission gate: it reserves n
// query pairs against the in-flight budget and reports whether the
// request may proceed. On admission the caller must release() when
// done; on rejection nothing is held and a 429 with Retry-After has
// been written.
func (s *server) admitPairs(w http.ResponseWriter, n int) (release func(), ok bool) {
	cur := s.inflightPairs.Add(int64(n))
	if max := s.maxInflight; max > 0 && cur > max {
		s.inflightPairs.Add(int64(-n))
		s.hm.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity: %d in-flight pairs, limit %d", cur-int64(n), max))
		return nil, false
	}
	return func() { s.inflightPairs.Add(int64(-n)) }, true
}

// handleMetrics serves the Prometheus text exposition of the shared
// registry. The read lock orders the scrape against mutations the same
// way /stats is ordered, so the two surfaces agree.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
