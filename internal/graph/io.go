package graph

import (
	"bufio"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// WriteText serializes the graph in a line-oriented format:
//
//	n <numVertices>
//	e <from> <label> <to>
//
// Vertex names are not serialized; the format captures exactly the
// V×Σ×V structure of the paper's db-graphs.
func (g *Graph) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "n %d\n", g.NumVertices()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "e %d %c %d\n", e.From, e.Label, e.To); err != nil {
			return err
		}
	}
	return nil
}

// ReadText parses the format written by WriteText: one "n <count>"
// line before any "e <from> <label> <to>" line. Counts and vertex ids
// are unsigned decimals below 2^31, a label is one byte, and fields are
// separated by runs of white space. Blank lines, lines whose first field
// starts with '#', and CRLF line ends are accepted. Every malformed line
// is an error naming its line number; a line longer than 64 KiB is
// bufio.ErrTooLong.
//
// It reads lines in place (bufio.Reader.ReadSlice) and splits them
// with a byte-level scanner, so it allocates nothing per line: the cost
// of a load is its bytes plus one AddEdge per edge line, the same build
// path as every other graph.
func ReadText(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, bufio.MaxScanTokenSize)
	var g *Graph
	var fields [5][]byte
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadSlice('\n')
		switch rerr {
		case nil, io.EOF:
		case bufio.ErrBufferFull:
			return nil, bufio.ErrTooLong
		default:
			return nil, rerr
		}
		nf := splitFields(line, &fields)
		switch {
		case nf == 0 || fields[0][0] == '#':
		case string(fields[0]) == "n":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate vertex-count line", lineNo)
			}
			n, ok := decimal(fields[1])
			if nf != 2 || !ok {
				return nil, fmt.Errorf("graph: line %d: bad vertex count", lineNo)
			}
			g = New(n)
		case string(fields[0]) == "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before vertex count", lineNo)
			}
			if nf != 4 || len(fields[2]) != 1 {
				return nil, fmt.Errorf("graph: line %d: want 'e from label to'", lineNo)
			}
			from, ok := decimal(fields[1])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: bad source", lineNo)
			}
			to, ok := decimal(fields[3])
			if !ok {
				return nil, fmt.Errorf("graph: line %d: bad target", lineNo)
			}
			if from >= g.NumVertices() || to >= g.NumVertices() {
				return nil, fmt.Errorf("graph: line %d: vertex out of range", lineNo)
			}
			g.AddEdge(from, fields[2][0], to)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
		if rerr == io.EOF {
			break
		}
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return g, nil
}

// splitFields splits line at runs of white space — what strings.Fields
// counts as white space, Unicode spaces included — into dst, and returns
// how many fields the line has; those past len(dst) are counted, not
// stored. Unused entries of dst are left empty.
func splitFields(line []byte, dst *[5][]byte) int {
	*dst = [5][]byte{}
	nf, start := 0, -1
	for i := 0; i <= len(line); {
		space, w := true, 1 // the end of the line ends a field like a space
		if i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				space = asciiSpace[c]
			} else {
				var r rune
				r, w = utf8.DecodeRune(line[i:])
				space = unicode.IsSpace(r)
			}
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			if nf < len(dst) {
				dst[nf] = line[start:i]
			}
			nf++
			start = -1
		}
		i += w
	}
	return nf
}

// asciiSpace marks the ASCII white space strings.Fields splits at.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// decimal parses an unsigned decimal below 2^31: digits only, no sign.
func decimal(b []byte) (int, bool) {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v >= 1<<31 {
			return 0, false
		}
	}
	return v, len(b) > 0
}

// WriteDOT emits a Graphviz rendering, optionally highlighting the edges
// of a path.
func (g *Graph) WriteDOT(w io.Writer, highlight *Path) error {
	onPath := map[[2]int]byte{}
	if highlight != nil {
		for i, label := range highlight.Labels {
			onPath[[2]int{highlight.Vertices[i], highlight.Vertices[i+1]}] = label
		}
	}
	if _, err := fmt.Fprintln(w, "digraph G {"); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if _, err := fmt.Fprintf(w, "  %d [label=%q];\n", v, g.Name(v)); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		attr := ""
		if l, ok := onPath[[2]int{e.From, e.To}]; ok && l == e.Label {
			attr = ", color=red, penwidth=2"
		}
		if _, err := fmt.Fprintf(w, "  %d -> %d [label=\"%c\"%s];\n", e.From, e.To, e.Label, attr); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
