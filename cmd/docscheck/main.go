// Command docscheck verifies that repository paths referenced from the
// markdown docs — and the markdown files Go comments point readers at —
// actually exist, so README/ARCHITECTURE rot is caught by `make docs`
// and the CI docs job instead of by a reader.
//
//	docscheck README.md docs/ARCHITECTURE.md experiments_test.go
//
// In a markdown file two kinds of references are checked, resolved
// against the current working directory (the repo root in CI):
//
//   - relative markdown link targets: [text](docs/ARCHITECTURE.md)
//     (absolute URLs and in-page #anchors are ignored);
//   - inline-code path tokens naming checked-in files or directories:
//     `internal/rspq/batch.go`, `cmd/rspqd`, `example_test.go` —
//     any backticked token rooted at cmd/, internal/, docs/ or
//     examples/, or a root-level *.go / *.md / Makefile reference.
//     Tokens containing placeholders (<rev>, *, …) are skipped.
//
// In a Go file (a *.go argument) the comments are checked for root-level
// markdown names — README.md, ROADMAP.md — which is how a source file
// sends its reader to a document.
//
// Exit status 1 lists every dangling reference with its file and line.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
)

var (
	mdLink    = regexp.MustCompile(`\]\(([^)]+)\)`)
	codeToken = regexp.MustCompile("`([^`]+)`")
	// pathish matches tokens worth checking: rooted in a known tree, or
	// a root-level Go/markdown file or the Makefile.
	pathish = regexp.MustCompile(`^(?:(?:cmd|internal|docs|examples)(?:/[A-Za-z0-9_.\-]+)*|[A-Za-z0-9_.\-]+\.(?:go|md)|Makefile)$`)
	// rootMD matches a markdown file name standing alone in prose: not
	// the tail of a longer path or URL.
	rootMD = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./\-])([A-Za-z0-9_\-]+\.md)\b`)
)

// refs collects the dangling references of one file, each reported
// once, as "file:line: ref" strings.
type refs struct {
	path string
	seen map[string]bool
	bad  []string
}

// check records ref as dangling when it names nothing on disk; tokens
// containing placeholders are skipped.
func (r *refs) check(line int, ref string) {
	ref = strings.TrimSuffix(ref, "/")
	if r.seen[ref] || strings.ContainsAny(ref, "<>*|{} ") {
		return
	}
	r.seen[ref] = true
	if _, err := os.Stat(ref); err != nil {
		r.bad = append(r.bad, fmt.Sprintf("%s:%d: %s", r.path, line, ref))
	}
}

// checkGoFile scans the comments of one Go file and returns the
// root-level markdown files they name that do not exist.
func checkGoFile(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	r := refs{path: path, seen: map[string]bool{}}
	for _, group := range f.Comments {
		for _, c := range group.List {
			first := fset.Position(c.Pos()).Line
			for i, line := range strings.Split(c.Text, "\n") {
				for _, m := range rootMD.FindAllStringSubmatch(line, -1) {
					r.check(first+i, m[1])
				}
			}
		}
	}
	return r.bad, nil
}

// checkFile scans one markdown file and returns its dangling
// references.
func checkFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := refs{path: path, seen: map[string]bool{}}
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			ref := m[1]
			if strings.Contains(ref, "://") || strings.HasPrefix(ref, "#") || strings.HasPrefix(ref, "mailto:") {
				continue
			}
			ref, _, _ = strings.Cut(ref, "#") // strip in-page anchors
			r.check(i+1, ref)
		}
		for _, m := range codeToken.FindAllStringSubmatch(line, -1) {
			if pathish.MatchString(m[1]) {
				r.check(i+1, m[1])
			}
		}
	}
	return r.bad, nil
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		files = []string{"README.md"}
	}
	var bad []string
	for _, f := range files {
		check := checkFile
		if strings.HasSuffix(f, ".go") {
			check = checkGoFile
		}
		b, err := check(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
		bad = append(bad, b...)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d dangling reference(s):\n", len(bad))
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  "+b)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean\n", len(files))
}
