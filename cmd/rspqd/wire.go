// The request path of rspqd without reflection: every POST body is read
// into a pooled buffer, decoded by a small scanner that takes exactly
// the shapes clients send, and — for /query and /batch — answered by
// appending the JSON into the same buffer and writing it once with its
// Content-Length. Anything the scanner does not take goes, byte for
// byte, to the encoding/json decoder every endpoint used before, so
// each body is accepted or refused as it always was, with the same
// error text; only bytes after the object other than whitespace are now
// refused on both paths.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// maxPooled bounds the buffers the pool keeps: a million-pair /batch
// is read, answered and dropped rather than pinned for the process's
// life.
const maxPooled = 64 << 10

// maxPresize bounds how many list elements a scan reserves up front
// from counting the body's braces; a longer list grows by append.
const maxPresize = 4096

// intDigits is the longest integer the scanner converts itself:
// 18 digits always fit an int64, 9 an int32.
const intDigits = strconv.IntSize * 18 / 64

// readRequest reads a POST body, at most maxBody bytes, into a pooled
// buffer and decodes it with decode. On failure it has answered 405 or
// 400 and returns nil; otherwise the caller may append its answer into
// the buffer and must hand it back with putBuf.
func (s *server) readRequest(w http.ResponseWriter, r *http.Request, decode func([]byte) error) *[]byte {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return nil
	}
	buf := s.bufs.Get().(*[]byte)
	// net/http never reads past a declared Content-Length, so only an
	// undeclared or larger one needs the reader that enforces maxBody.
	var body io.Reader = r.Body
	if r.ContentLength < 0 || r.ContentLength > maxBody {
		body = http.MaxBytesReader(w, r.Body, maxBody)
	}
	b := bytes.NewBuffer((*buf)[:0])
	_, err := b.ReadFrom(body)
	*buf = b.Bytes()
	if err == nil {
		err = decode(*buf)
	}
	if err != nil {
		s.putBuf(buf)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil
	}
	return buf
}

func (s *server) putBuf(buf *[]byte) {
	if cap(*buf) <= maxPooled {
		s.bufs.Put(buf)
	}
}

// writeAnswer sends the answer b, appended into buf, in one write with
// an explicit Content-Length, and keeps the (possibly grown) buffer for
// the pool.
func writeAnswer(w http.ResponseWriter, buf *[]byte, b []byte) {
	*buf = b
	v := []string{"application/json", strconv.Itoa(len(b))} // one allocation for both values
	h := w.Header()
	h["Content-Type"], h["Content-Length"] = v[:1:1], v[1:]
	if _, err := w.Write(b); err != nil {
		log.Printf("rspqd: write response: %v", err)
	}
}

// The decode step of each POST endpoint: the scanner, then encoding/json
// for whatever it does not take.

func decodeQuery(body []byte, q *queryRequest) error {
	s := scanner{b: body}
	if s.query(q) && s.end() {
		return nil
	}
	return decodeJSON(body, q)
}

func decodeBatch(body []byte, b *batchRequest) error {
	s := scanner{b: body}
	if s.batch(b) && s.end() {
		return nil
	}
	return decodeJSON(body, b)
}

func decodeEdge(body []byte, e *edgeRequest) error {
	s := scanner{b: body}
	if s.edge(e) && s.end() {
		return nil
	}
	return decodeJSON(body, e)
}

func decodeEdges(body []byte, d *edgesRequest) error {
	s := scanner{b: body}
	if s.edges(d) && s.end() {
		return nil
	}
	return decodeJSON(body, d)
}

// decodeJSON decodes one value into *dst with encoding/json, refusing
// unknown fields, and then anything but whitespace after it. It decodes
// into a value of its own, so that dst — the handler's request — stays
// off the heap on the scanner's path.
func decodeJSON[T any](body []byte, dst *T) error {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	*dst = v
	if err != nil {
		return err
	}
	for _, c := range body[dec.InputOffset():] {
		if !isSpace(c) {
			return fmt.Errorf("invalid character %q after top-level value", c)
		}
	}
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// scanner decodes the request objects clients send: any key order and
// whitespace; integers of at most intDigits digits with no fraction or
// exponent; true and false; strings of printable ASCII with no escapes.
// Each method reports false on anything else — case-folded or unknown
// keys, null, escapes, long numbers, a list given twice, malformed
// input — which is not a verdict: the caller then hands the body to
// encoding/json. A scalar key given twice keeps its last value, as
// encoding/json does.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// next skips whitespace and consumes c.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int scans the digits of an integer; a fraction or an exponent after
// them fails the delimiter test of the enclosing object.
func (s *scanner) int() (int, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + int(s.b[s.i]-'0')
	}
	if d := s.i - start; d == 0 || d > intDigits || (d > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

func (s *scanner) bool() (v, ok bool) {
	if s.word("true") {
		return true, true
	}
	return false, s.word("false")
}

func (s *scanner) word(w string) bool {
	s.space()
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// object scans one object, calling field with the scanner at each key's
// value; field reports whether it took the key and scanned its value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') || !field(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// objects scans a list of objects into *dst, which must not be set yet:
// how encoding/json merges a repeated list into the first is its own
// business.
func objects[T any](s *scanner, dst *[]T, scan func(*T) bool) bool {
	if *dst != nil || !s.next('[') {
		return false
	}
	*dst = make([]T, 0, min(bytes.Count(s.b[s.i:], []byte{'{'}), maxPresize))
	if s.next(']') {
		return true
	}
	for {
		*dst = append(*dst, *new(T))
		if !scan(&(*dst)[len(*dst)-1]) {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

func (s *scanner) query(q *queryRequest) bool {
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "x":
			q.X, ok = s.int()
		case "y":
			q.Y, ok = s.int()
		case "exists_only":
			q.ExistsOnly, ok = s.bool()
		case "trace":
			q.Trace, ok = s.bool()
		}
		return ok
	})
}

func (s *scanner) batch(b *batchRequest) bool {
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "pairs":
			ok = objects(s, &b.Pairs, s.query)
		case "exists_only":
			b.ExistsOnly, ok = s.bool()
		}
		return ok
	})
}

func (s *scanner) edge(e *edgeRequest) bool {
	return s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "from":
			e.From, ok = s.int()
		case "label":
			var l []byte
			if l, ok = s.str(); ok {
				e.Label = string(l)
			}
		case "to":
			e.To, ok = s.int()
		}
		return ok
	})
}

func (s *scanner) edges(d *edgesRequest) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "add":
			return objects(s, &d.Add, s.edge)
		case "remove":
			return objects(s, &d.Remove, s.edge)
		}
		return false
	})
}

// appendQuery appends the /query answer exactly as json.Encoder writes
// queryResponse{Found: found, Path: toPathJSON(p)}, newline included.
func appendQuery(b []byte, found bool, p *graph.Path) []byte {
	return append(appendResult(b, found, p), '\n')
}

// appendBatch appends the /batch answer exactly as json.Encoder writes
// the batchResponse of results or found.
func appendBatch(b []byte, results []rspq.Result, found []bool) []byte {
	b = append(b, '{')
	if len(results) > 0 {
		b = append(b, `"results":[`...)
		for i, r := range results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResult(b, r.Found, r.Path)
		}
		b = append(b, ']')
	}
	if len(found) > 0 {
		if len(results) > 0 {
			b = append(b, ',')
		}
		b = append(b, `"found":[`...)
		for i, f := range found {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, f)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

func appendResult(b []byte, found bool, p *graph.Path) []byte {
	b = append(b, `{"found":`...)
	b = strconv.AppendBool(b, found)
	if p != nil {
		b = append(b, `,"path":{"vertices":`...)
		if p.Vertices == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, v := range p.Vertices {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(v), 10)
			}
			b = append(b, ']')
		}
		b = append(b, `,"word":`...)
		b = appendString(b, p.Labels)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied; any other string goes through json.Marshal, whose
// escaping — the HTML characters and invalid UTF-8 included — is the
// Encoder's.
func appendString(b, s []byte) []byte {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(s)) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
