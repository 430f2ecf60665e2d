package main

import (
	"slices"
	"testing"

	"repro/internal/core"
)

func TestParseModel(t *testing.T) {
	for _, c := range []struct {
		name string
		want []core.Model
	}{
		{"edge", []core.Model{core.EdgeLabeled}},
		{"vlg", []core.Model{core.VertexLabeled}},
		{"both", []core.Model{core.EdgeLabeled, core.VertexLabeled}},
		{"bogus", nil},
		{"", nil},
	} {
		got, err := parseModel(c.name)
		if (err == nil) != (c.want != nil) || !slices.Equal(got, c.want) {
			t.Errorf("parseModel(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}
