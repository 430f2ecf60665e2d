//go:build !race

package graph

// raceEnabled reports whether the race detector instruments this
// build: its shadow memory and instrumentation allocate, so the heap
// and allocation guards skip themselves under -race.
const raceEnabled = false
