package rspq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPackageStateAllowList pins the package-level variables of the
// non-test sources to the pools, the solver id counter and the two test
// hooks. Anything else is process-wide mutable state steering every
// query, which belongs on a Solver, an Engine or the arena instead.
func TestPackageStateAllowList(t *testing.T) {
	allowed := []string{"arenaPool", "seqSearcherPool", "solverIDs", "bitParallelOff", "exchangeWorkersOverride"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var found []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					found = append(found, id.Name)
					if !slices.Contains(allowed, id.Name) {
						t.Errorf("%s: package-level var %s is not in the allow-list", fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
	if len(found) == 0 {
		t.Fatal("no package-level vars found; the guard is reading the wrong directory")
	}
}
