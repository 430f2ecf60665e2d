package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// This file holds ReadText to its predecessor, the fmt-based parser
// (readTextReference): on every input ReadText must not panic, must
// reject what the reference rejects, and where the reference accepts a
// file whose numbers are all canonical decimals it must build the same
// graph, with the same rows in file order.

// readTextReference is the parser ReadText replaced: bufio.Scanner,
// strings.Fields and fmt.Sscanf per line. It panics on "n" and "n -1",
// and reads "1x" and "+1" as 1.
func readTextReference(data []byte) (*Graph, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	var g *Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate vertex-count line", lineNo)
			}
			var n int
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count", lineNo)
			}
			g = New(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before vertex count", lineNo)
			}
			if len(fields) != 4 || len(fields[2]) != 1 {
				return nil, fmt.Errorf("graph: line %d: want 'e from label to'", lineNo)
			}
			var from, to int
			if _, err := fmt.Sscanf(fields[1], "%d", &from); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad source", lineNo)
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &to); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad target", lineNo)
			}
			if from < 0 || from >= g.NumVertices() || to < 0 || to >= g.NumVertices() {
				return nil, fmt.Errorf("graph: line %d: vertex out of range", lineNo)
			}
			g.AddEdge(from, fields[2][0], to)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return g, nil
}

// referenceVerdict runs the reference, reading a panic as a rejection.
func referenceVerdict(data []byte) (g *Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("reference panicked: %v", r)
		}
	}()
	return readTextReference(data)
}

// numbersOf returns the fields of data's "n" and "e" lines that the
// reference reads as numbers, split as the reference splits them.
func numbersOf(data []byte) []string {
	var nums []string
	for line := range strings.Lines(string(data)) {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "n":
			nums = append(nums, f[1])
		case len(f) >= 4 && f[0] == "e":
			nums = append(nums, f[1], f[3])
		}
	}
	return nums
}

// canonical reports whether s is a decimal as WriteText writes one: digits,
// no sign, no leading zero.
func canonical(s string) bool {
	if s == "" || (s[0] == '0' && len(s) > 1) {
		return false
	}
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// maxCompared is the largest vertex count the differential compares
// row by row.
const maxCompared = 1 << 16

func FuzzReadText(f *testing.F) {
	for _, in := range readTextBad {
		f.Add([]byte(in))
	}
	var buf bytes.Buffer
	if err := Random(10, []byte("abc"), 0.3, 77).WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("n 3\ne 0 a 1\ne 0 a 1\ne 1 b 2\ne 0 a 1\n"))
	f.Add([]byte("# c\r\n\r\nn 3\r\n\te 2  a\t0\r\ne 0 b 2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadText(bytes.NewReader(data))
		nums := numbersOf(data)
		for _, s := range nums {
			var n int
			if _, serr := fmt.Sscanf(s, "%d", &n); serr == nil && n > maxCompared {
				return // the rows compared below would be too many
			}
		}
		want, werr := referenceVerdict(data)
		if werr != nil {
			if err == nil {
				t.Fatalf("the reference rejects (%v), ReadText accepts", werr)
			}
			return
		}
		if slices.ContainsFunc(nums, func(s string) bool { return !canonical(s) }) {
			return // the reference reads "1x" and "+1" as 1
		}
		if err != nil {
			t.Fatalf("the reference accepts, ReadText rejects: %v", err)
		}
		if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
			got.Epoch() != want.Epoch() || !slices.Equal(got.Alphabet(), want.Alphabet()) {
			t.Fatalf("ReadText: n=%d m=%d epoch %d alphabet %q; reference n=%d m=%d epoch %d alphabet %q",
				got.NumVertices(), got.NumEdges(), got.Epoch(), got.Alphabet(),
				want.NumVertices(), want.NumEdges(), want.Epoch(), want.Alphabet())
		}
		if !EdgeSetEqual(got, want) {
			t.Fatal("ReadText and the reference built different edge sets")
		}
		for v := range got.NumVertices() {
			if !slices.Equal(got.OutEdges(v), want.OutEdges(v)) || !slices.Equal(got.InEdges(v), want.InEdges(v)) {
				t.Fatalf("vertex %d: rows out %v in %v, reference out %v in %v",
					v, got.OutEdges(v), got.InEdges(v), want.OutEdges(v), want.InEdges(v))
			}
		}
	})
}
