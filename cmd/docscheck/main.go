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
// Test names are checked too, against the Test/Fuzz/Benchmark/Example
// functions defined in the _test.go files under the working directory:
// a backticked name in markdown must be one of them, and a name in a
// -run or -fuzz pattern — in markdown code or in a Makefile argument —
// must start one that the pattern matches. `go test -run` on
// a missing name passes with "no tests to run", so a renamed test would
// otherwise drop silently out of the commands that name it.
//
// Exit status 1 lists every dangling reference with its file and line.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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
	// testName matches a test function's name; testFunc its definition.
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	// runFlag matches a go test flag that takes a test-name pattern.
	runFlag = regexp.MustCompile(`-(?:run|fuzz)[ =]('[^']*'|"[^"]*"|[^\s'"]+)`)
)

// testFuncs lists the test functions defined in the _test.go files
// under the working directory, outside testdata and hidden directories.
func testFuncs() ([]string, error) {
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	return names, err
}

// refs collects the dangling references of one file, each reported
// once, as "file:line: ref" strings. tests are the defined test
// functions.
type refs struct {
	path  string
	seen  map[string]bool
	bad   []string
	tests []string
}

// checkTests checks the test names in text, a code span or a Makefile
// line: each name inside a -run/-fuzz pattern must start a
// defined test function the pattern matches; when exact is set, each
// other name must be one, except a name followed by a * placeholder.
func (r *refs) checkTests(line int, text string, exact bool) {
	for _, m := range runFlag.FindAllStringSubmatchIndex(text, -1) {
		pattern := strings.Trim(text[m[2]:m[3]], `'"`)
		re, err := regexp.Compile(strings.ReplaceAll(pattern, "$$", "$")) // a Makefile escapes $
		for _, name := range testName.FindAllString(pattern, -1) {
			if !r.defined(func(fn string) bool { return strings.HasPrefix(fn, name) && (err != nil || re.MatchString(fn)) }) {
				r.dangle(line, name)
			}
		}
		text = text[:m[2]] + strings.Repeat(" ", m[3]-m[2]) + text[m[3]:]
	}
	if !exact {
		return
	}
	for _, m := range testName.FindAllStringIndex(text, -1) {
		name := text[m[0]:m[1]]
		if !strings.HasPrefix(text[m[1]:], "*") && !r.defined(func(fn string) bool { return fn == name }) {
			r.dangle(line, name)
		}
	}
}

// defined reports whether some defined test function satisfies ok.
func (r *refs) defined(ok func(fn string) bool) bool {
	for _, fn := range r.tests {
		if ok(fn) {
			return true
		}
	}
	return false
}

// dangle records ref as dangling, once.
func (r *refs) dangle(line int, ref string) {
	if !r.seen[ref] {
		r.seen[ref] = true
		r.bad = append(r.bad, fmt.Sprintf("%s:%d: %s", r.path, line, ref))
	}
}

// check records ref as dangling when it names nothing on disk; tokens
// containing placeholders are skipped.
func (r *refs) check(line int, ref string) {
	ref = strings.TrimSuffix(ref, "/")
	if r.seen[ref] || strings.ContainsAny(ref, "<>*|{} ") {
		return
	}
	if _, err := os.Stat(ref); err != nil {
		r.dangle(line, ref)
	}
	r.seen[ref] = true
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

// checkMakefile scans a Makefile's lines for test-name patterns.
func checkMakefile(path string, tests []string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := refs{path: path, seen: map[string]bool{}, tests: tests}
	for i, line := range strings.Split(string(data), "\n") {
		r.checkTests(i+1, line, false)
	}
	return r.bad, nil
}

// checkFile scans one markdown file and returns its dangling
// references.
func checkFile(path string, tests []string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := refs{path: path, seen: map[string]bool{}, tests: tests}
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
			} else {
				r.checkTests(i+1, m[1], true)
			}
		}
	}
	return r.bad, nil
}

// run checks files and returns their dangling references.
func run(files []string) ([]string, error) {
	tests, err := testFuncs()
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, f := range files {
		var b []string
		switch {
		case strings.HasSuffix(f, ".go"):
			b, err = checkGoFile(f)
		case filepath.Base(f) == "Makefile":
			b, err = checkMakefile(f, tests)
		default:
			b, err = checkFile(f, tests)
		}
		if err != nil {
			return nil, err
		}
		bad = append(bad, b...)
	}
	return bad, nil
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		files = []string{"README.md"}
	}
	bad, err := run(files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
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
