package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// batchResponse is the /batch answer as json.Encoder wrote it before
// appendBatch; the append encoding must equal it byte for byte.
type batchResponse struct {
	Results []queryResponse `json:"results,omitempty"`
	Found   []bool          `json:"found,omitempty"`
}

// refDecode is the reference every decode step must agree with:
// encoding/json with unknown fields refused, then nothing but
// whitespace up to the end of the body. It returns whether the body is
// accepted, and the decoder's own error when it has one.
func refDecode(body []byte, dst any) (bool, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return false, err
	}
	var rest json.RawMessage
	return dec.Decode(&rest) == io.EOF, nil
}

// checkDecode runs decode — scanner plus fallback, as the handler does
// — against refDecode: the same verdict, the same value when accepted,
// and encoding/json's own error text wherever encoding/json refuses.
func checkDecode[T any](t *testing.T, body []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	err := decode(body, &got)
	ok, refErr := refDecode(body, &want)
	switch {
	case (err == nil) != ok:
		t.Fatalf("%T %q: decode error %v, reference accepts=%v (%v)", got, body, err, ok, refErr)
	case refErr != nil && err.Error() != refErr.Error():
		t.Fatalf("%T %q: decode error %q, reference %q", got, body, err, refErr)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("%T %q: decoded %+v, reference %+v", got, body, got, want)
	}
}

// decodeSeeds are the bench's wire shapes and the inputs the scanner
// must leave to encoding/json; each fuzzer starts from all of them.
var decodeSeeds = []string{
	// the wire shapes the bench sends
	`{"x":12,"y":345}`,
	`{"x":0,"y":3,"trace":true}`,
	`{"x":0,"y":3,"exists_only":true}`,
	`{"pairs":[{"x":1,"y":2},{"x":3,"y":4}]}`,
	`{"pairs":[{"x":1,"y":2},{"x":3,"y":4}],"exists_only":true}`,
	`{"from":3,"label":"c","to":0}`,
	`{"add":[{"from":1,"label":"a","to":2}],"remove":[{"from":0,"label":"b","to":9}]}`,
	`{"add":[],"remove":[{"from":0,"label":"b","to":9}]}`,
	// key order, whitespace, duplicates, empties
	" \t\r\n{ \"y\" : -7 ,\n\"x\":\t0 } \n",
	`{}`, `{"x":1,"x":2}`, `{"pairs":[{"x":1}],"pairs":[{"y":2}]}`, `{"pairs":[]}`,
	`{"add":[],"add":[]}`, `{"from":1,"label":"a","label":"b","to":2}`, `{"label":""}`,
	// case-folded keys, null, escapes, unknown keys
	`{"X":1,"Y":2}`, `{"Pairs":[]}`, `{"x":null}`, `null`, `{"pairs":null}`, `{"add":null}`,
	`{"\u0078":1}`, `{"label":"\u0061"}`, `{"label":"\""}`, `{"label":"\n"}`, `{"label":"é"}`, "{\"label\":\"\xff\"}", "{\"label\":\"\x01\"}",
	`{"bogus":1}`, `{"pairs":[{"x":1,"z":2}]}`, `{"pairs":[{"x":1,"y":2,"trace":true,"exists_only":false}]}`,
	// numbers
	`{"x":1.0}`, `{"x":1e2}`, `{"x":01}`, `{"x":-0}`, `{"x":-}`, `{"x":"1"}`, `{"x":true}`,
	`{"x":999999999999999999}`, `{"x":-999999999999999999}`,
	`{"x":1234567890123456789}`, `{"x":12345678901234567890}`, `{"x":-9223372036854775808}`,
	// malformed and trailing data
	``, ` `, `{`, `{"x":0,"y":`, `{"x":0,}`, `{"x" 1}`, `[1]`, `{"exists_only":tru}`, `{"trace":truex}`,
	`{"x":0,"y":3}{"x":9}`, `{"x":0,"y":3} garbage`, `{"x":0} ]`, `{"pairs":[{"x":1}]} x`, `{"add":[]}}`,
}

func fuzzDecode(f *testing.F, check func(t *testing.T, body []byte)) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(check)
}

func FuzzDecodeQuery(f *testing.F) {
	fuzzDecode(f, func(t *testing.T, body []byte) { checkDecode(t, body, decodeQuery) })
}

func FuzzDecodeBatch(f *testing.F) {
	fuzzDecode(f, func(t *testing.T, body []byte) { checkDecode(t, body, decodeBatch) })
}

// FuzzDecodeEdges covers both mutation endpoints: /edge's single object
// and /edges' lists of them.
func FuzzDecodeEdges(f *testing.F) {
	fuzzDecode(f, func(t *testing.T, body []byte) {
		checkDecode(t, body, decodeEdge)
		checkDecode(t, body, decodeEdges)
	})
}

// TestAnswerEncoding pins the append encoding of /query and /batch
// answers to what json.Encoder writes for queryResponse and
// batchResponse, byte for byte, on random answers whose words carry
// every byte class the Encoder escapes.
func TestAnswerEncoding(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// Bytes the Encoder escapes or replaces: quote, backslash, the HTML
	// characters, controls, DEL, a valid two-byte rune, U+2028, and
	// bytes that are not UTF-8 on their own.
	special := []string{`"`, `\`, "<", ">", "&", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "\u2028", "\x80", "\xff", "\xc3"}
	rng := rand.New(rand.NewSource(1))
	randPath := func() *graph.Path {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return &graph.Path{Labels: []byte("ab")} // nil Vertices
		case 2:
			return &graph.Path{Vertices: []int{}}
		}
		p := &graph.Path{}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			p.Vertices = append(p.Vertices, rng.Intn(2001)-1000)
		}
		p.Vertices = append(p.Vertices, -1<<62, 1<<62)
		for i, n := 0, rng.Intn(5); i < n; i++ {
			if rng.Intn(3) == 0 {
				p.Labels = append(p.Labels, special[rng.Intn(len(special))]...)
			} else {
				p.Labels = append(p.Labels, byte('a'+rng.Intn(26)))
			}
		}
		return p
	}
	for i := 0; i < 2000; i++ {
		found, p := rng.Intn(2) == 0, randPath()
		want := encode(queryResponse{Found: found, Path: toPathJSON(p)})
		if got := string(appendQuery(nil, found, p)); got != want {
			t.Fatalf("query answer %q; json.Encoder writes %q", got, want)
		}

		var results []rspq.Result
		var answers []queryResponse
		var bits []bool
		for j, n := 0, rng.Intn(4); j < n; j++ {
			r := rspq.Result{Found: rng.Intn(2) == 0, Path: randPath()}
			results = append(results, r)
			answers = append(answers, queryResponse{Found: r.Found, Path: toPathJSON(r.Path)})
		}
		for j, n := 0, rng.Intn(4); j < n; j++ {
			bits = append(bits, rng.Intn(2) == 0)
		}
		for _, c := range []struct {
			results []rspq.Result
			found   []bool
			resp    batchResponse
		}{
			{results, nil, batchResponse{Results: answers}},
			{nil, bits, batchResponse{Found: bits}},
			{results, bits, batchResponse{Results: answers, Found: bits}},
		} {
			want := encode(c.resp)
			if got := string(appendBatch(nil, c.results, c.found)); got != want {
				t.Fatalf("batch answer %q; json.Encoder writes %q", got, want)
			}
		}
	}
	if got := string(appendBatch(nil, []rspq.Result{}, []bool{})); got != "{}\n" {
		t.Fatalf("empty batch answer %q; want {}", got)
	}
}

// sinkWriter is a reusable ResponseWriter that keeps the last answer.
type sinkWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *sinkWriter) Header() http.Header  { return w.h }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestQueryHotAllocs bounds what a cached read allocates end to end
// through the server's mux: a result-hit /query with an answer below
// and one above 100 bytes, and a cached 64-pair /batch, with the request
// and the writer reused. Before the scanner and the append encoding the
// same reads allocated 14 and 88 times. What is left on /query: the
// header values, and the Content-Length string of an answer of 100
// bytes or more (strconv keeps the strings of smaller numbers); the
// instrument wrapper's status recorder is pooled.
func TestQueryHotAllocs(t *testing.T) {
	const pattern = "a*(bb+|())c*"
	s, err := rspq.NewSolver(pattern)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(s, graph.RandomRegular(400, []byte("abc"), 3, 1), pattern, rspq.EngineConfig{Workers: 1})
	h := srv.routes()
	w := &sinkWriter{h: http.Header{}}
	body := bytes.NewReader(nil)
	rc := io.NopCloser(body)
	var pairs strings.Builder
	pairs.WriteString(`{"pairs":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			pairs.WriteByte(',')
		}
		fmt.Fprintf(&pairs, `{"x":%d,"y":%d}`, (i*37)%400, (i%4)*100)
	}
	pairs.WriteString(`]}`)
	for _, c := range []struct {
		path, body string
		minLen     int // the answer's least size in bytes
		max        float64
	}{
		{"/query", `{"x":7,"y":300}`, 0, 1},
		{"/query", `{"x":4,"y":300}`, 100, 2},
		{"/batch", pairs.String(), 0, 7},
	} {
		b := []byte(c.body)
		r := httptest.NewRequest(http.MethodPost, c.path, nil)
		read := func() {
			body.Reset(b)
			r.Body, r.ContentLength = rc, int64(len(b))
			clear(w.h)
			w.code, w.body = http.StatusOK, w.body[:0]
			h.ServeHTTP(w, r)
		}
		read() // fill the caches
		if w.code != http.StatusOK || w.h.Get("Content-Length") != fmt.Sprint(len(w.body)) {
			t.Fatalf("%s: status %d, Content-Length %q for a %d-byte answer", c.path, w.code, w.h.Get("Content-Length"), len(w.body))
		}
		if len(w.body) < c.minLen {
			t.Fatalf("%s %s: a %d-byte answer; the case needs one of at least %d", c.path, c.body, len(w.body), c.minLen)
		}
		allocs := testing.AllocsPerRun(200, read)
		t.Logf("%s: %.1f allocs per cached read of a %d-byte answer", c.path, allocs, len(w.body))
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs per cached read; want ≤ %.0f", c.path, allocs, c.max)
		}
	}
}
