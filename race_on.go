//go:build race

package trichotomy

const raceEnabled = true
