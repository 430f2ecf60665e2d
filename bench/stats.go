package main

import (
	"math"
	"sort"
	"time"
)

// blockSize is the number of consecutive sub-20µs ops timed with one
// clock pair; latency percentiles are then taken over block means.
const blockSize = 256

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// v, or 0 for an empty slice. v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the zero-based nearest-rank index of the p-th percentile
// among n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond reports how many of n samples lie strictly beyond the p-th
// percentile's rank — the population a tail percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// roundRec collects what one round measured. Latency samples are in
// microseconds: one per timed read or write, where a block-timed op
// contributes its block's mean once per block.
type roundRec struct {
	readLat  []float64
	reads    int           // read ops completed
	readWall time.Duration // wall time of the timed read work
	writeLat []float64
	writes   int           // acknowledged mutation calls
	cpu      time.Duration // CPU of the process holding the graph over the timed segments
}

func newRoundRec(reads, writes int) *roundRec {
	return &roundRec{readLat: make([]float64, 0, reads), writeLat: make([]float64, 0, writes)}
}

// roundValues are the per-round end-to-end metric values.
func (r *roundRec) values() map[string]float64 {
	ops := float64(r.reads + r.writes)
	return map[string]float64{
		"reads_per_s":   float64(r.reads) / r.readWall.Seconds(),
		"read_p50_us":   percentile(r.readLat, 50),
		"read_p95_us":   percentile(r.readLat, 95),
		"write_p50_us":  percentile(r.writeLat, 50),
		"cpu_s_per_kop": r.cpu.Seconds() / (ops / 1000),
	}
}

// atReferenceSpeed scales a round's time-based values by the speed
// factor of the machine while the round ran (see yardstick.go): times
// shrink by it, rates grow by it.
func atReferenceSpeed(vals map[string]float64, speed float64) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for name, v := range vals {
		if name == "reads_per_s" {
			out[name] = v * speed
		} else {
			out[name] = v / speed
		}
	}
	return out
}

// medianOfRounds reduces per-round metric maps to the run's value of
// each metric: the median over the rounds.
func medianOfRounds(rounds []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(rounds) == 0 {
		return out
	}
	for name := range rounds[0] {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r[name]
		}
		out[name] = median(vals)
	}
	return out
}
