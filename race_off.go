//go:build !race

package trichotomy

// raceEnabled reports whether the race detector instruments this
// build; alloc-count guards are meaningless under it.
const raceEnabled = false
