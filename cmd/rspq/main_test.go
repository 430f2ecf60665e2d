package main

import (
	"testing"

	"repro/internal/rspq"
)

func TestParseAlgo(t *testing.T) {
	for _, c := range []struct {
		name     string
		shortest bool
		want     rspq.Algorithm
		ok       bool
	}{
		{"auto", false, rspq.AlgoAuto, true},
		{"auto", true, rspq.AlgoAuto, true},
		{"baseline", false, rspq.AlgoBaseline, true},
		{"walk", false, rspq.AlgoWalk, true},
		{"baseline", true, 0, false},
		{"summary", true, 0, false},
		{"bogus", false, 0, false},
	} {
		got, err := parseAlgo(c.name, c.shortest)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseAlgo(%q, shortest=%v) = %v, %v; want %v, ok=%v", c.name, c.shortest, got, err, c.want, c.ok)
		}
	}
}
