package main

import (
	"slices"
	"testing"
)

// TestDanglingNames runs the checker on a fixture tree whose README and
// Makefile name tests its one _test.go file does and does not define.
func TestDanglingNames(t *testing.T) {
	t.Chdir("testdata/dangling")
	bad, err := run([]string{"README.md", "Makefile"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:3: TestGone",
		"README.md:4: TestMissing",
		"README.md:5: docs/none.md",
		"Makefile:2: TestRenamed",
		"Makefile:3: TestPres",
	}
	if !slices.Equal(bad, want) {
		t.Fatalf("dangling references\n%q\nwant\n%q", bad, want)
	}
}
