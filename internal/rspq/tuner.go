package rspq

import (
	"math/bits"
	"sync"

	"repro/internal/metrics"
)

// This file implements the α/β auto-tuner: a small controller that
// replaces the fixed Beamer constants (dirAlphaDefault/dirBetaDefault)
// with thresholds learned from the per-round costs the kernels already
// measure for the telemetry layer (trace.go). The heuristic enters
// bottom-up when frontierEdges·α > unvisitedEdges; the break-even point
// is where a top-down round (cost ≈ cTD·frontierEdges) and a bottom-up
// round (cost ≈ cBU·unvisitedEdges) price equal, i.e. α* = cTD/cBU —
// the ratio of the measured per-edge-unit costs of the two directions.
// β keeps the default β/α ratio so the leave-bottom-up hysteresis
// scales with the entry threshold.
//
// The tuner is a two-state machine per (graph epoch, automaton size
// class) bucket:
//
//	OBSERVE  every finished DirAuto search under an Engine reports its
//	         per-direction (work, wall time) totals (dirConfig); the
//	         bucket folds them into EWMA cost-per-unit estimates.
//	ADJUST   once both directions have tunerMinSamples observations and
//	         the implied α* drifts outside the ±25% deadband around the
//	         bucket's current α, the bucket adopts the clamped α*/β*,
//	         the adjustment counter and gauges move, and the bucket
//	         returns to OBSERVE.
//
// A graph mutation starts a new epoch and therefore a fresh bucket:
// cost estimates restart (the graph changed under them) but the last
// adjusted thresholds of the same size class carry forward, so tuning
// survives mutations without replaying the warm-up. Pinned directions
// and override-forced runs never observe: their round mix does not
// reflect the heuristic the tuner steers. Thresholds are consumed by
// sweepEnv.dirConfig at search start and surface in QueryTrace,
// EngineStats and the rspq_dir_alpha / rspq_dir_beta gauges plus the
// rspq_tuner_adjustments_total counter.

const (
	tunerMinSamples = 4    // per-direction runs before the first adjust
	tunerEWMA       = 0.25 // weight of a new cost sample
	tunerAlphaMin   = 2
	tunerAlphaMax   = 256
	tunerBetaMin    = 4
	tunerBetaMax    = 512
	// tunerMaxBuckets bounds the bucket map; stale epochs are pruned
	// when a new epoch's bucket is created past the bound.
	tunerMaxBuckets = 64
)

// tunerSizeClass buckets automaton sizes logarithmically (1, 2, ≤4,
// ≤8, …): per-round cost per edge unit depends on how many product
// states ride on one vertex, not on the exact state count.
func tunerSizeClass(m int) int {
	if m <= 1 {
		return 0
	}
	return bits.Len(uint(m - 1))
}

type tunerKey struct {
	epoch uint64
	class int
}

// tunerBucket is one (epoch, size class) learning cell. alpha/beta are
// 0 until the first adjustment (thresholds then fall back to the size
// class's carried-forward pair, or the defaults).
type tunerBucket struct {
	cTD, cBU    float64 // EWMA ns per edge unit, per direction
	nTD, nBU    int64   // runs observed per direction
	alpha, beta int64
}

// dirTuner is the engine-owned controller; one per Engine, sharing the
// engine's metrics registry. Thresholds are read at search start and
// observations written at search end, both under one short mutex —
// never inside a round.
type dirTuner struct {
	mu      sync.Mutex
	buckets map[tunerKey]*tunerBucket
	last    map[int][2]int64 // per size class: last adjusted {α, β}

	alphaGauge  *metrics.Gauge
	betaGauge   *metrics.Gauge
	adjustments *metrics.Counter
}

func newDirTuner(reg *metrics.Registry) *dirTuner {
	t := &dirTuner{
		buckets: make(map[tunerKey]*tunerBucket),
		last:    make(map[int][2]int64),
		alphaGauge: reg.Gauge("rspq_dir_alpha",
			"Direction-switch threshold α in effect (most recent tuner adjustment; the default until one happens)."),
		betaGauge: reg.Gauge("rspq_dir_beta",
			"Direction-switch threshold β in effect (most recent tuner adjustment; the default until one happens)."),
		adjustments: reg.Counter("rspq_tuner_adjustments_total",
			"α/β threshold adjustments adopted by the auto-tuner."),
	}
	t.alphaGauge.Set(dirAlphaDefault)
	t.betaGauge.Set(dirBetaDefault)
	return t
}

// thresholds returns the tuned (α, β) for a search at the given graph
// epoch and automaton size, or ok=false while the bucket (and its size
// class) has never adjusted — the caller then keeps the defaults.
func (t *dirTuner) thresholds(epoch uint64, m int) (alpha, beta int64, ok bool) {
	class := tunerSizeClass(m)
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, hit := t.buckets[tunerKey{epoch, class}]; hit && b.alpha > 0 {
		return b.alpha, b.beta, true
	}
	if lb, hit := t.last[class]; hit {
		return lb[0], lb[1], true
	}
	return 0, 0, false
}

// observe folds one finished DirAuto search's per-direction (work,
// time) totals into the search's bucket and adjusts the thresholds
// when the measured cost ratio has drifted. Runs that never took a
// direction (or never timed one — no telemetry sink) contribute
// nothing.
func (t *dirTuner) observe(epoch uint64, m int, dc *dirConfig) {
	tdOK := dc.tdWork > 0 && dc.tdNanos > 0
	buOK := dc.buWork > 0 && dc.buNanos > 0
	if !tdOK && !buOK {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := tunerKey{epoch, tunerSizeClass(m)}
	b := t.buckets[k]
	if b == nil {
		if len(t.buckets) >= tunerMaxBuckets {
			for old := range t.buckets {
				if old.epoch != epoch {
					delete(t.buckets, old)
				}
			}
		}
		b = &tunerBucket{}
		if lb, hit := t.last[k.class]; hit {
			b.alpha, b.beta = lb[0], lb[1]
		}
		t.buckets[k] = b
	}
	if tdOK {
		b.nTD++
		c := float64(dc.tdNanos) / float64(dc.tdWork)
		if b.nTD == 1 {
			b.cTD = c
		} else {
			b.cTD += tunerEWMA * (c - b.cTD)
		}
	}
	if buOK {
		b.nBU++
		c := float64(dc.buNanos) / float64(dc.buWork)
		if b.nBU == 1 {
			b.cBU = c
		} else {
			b.cBU += tunerEWMA * (c - b.cBU)
		}
	}
	if b.nTD < tunerMinSamples || b.nBU < tunerMinSamples || b.cBU <= 0 {
		return
	}
	alpha := clampInt64(int64(b.cTD/b.cBU+0.5), tunerAlphaMin, tunerAlphaMax)
	cur := b.alpha
	if cur == 0 {
		cur = dirAlphaDefault
	}
	// ±25% deadband: EWMA jitter must not flap the thresholds (and the
	// adjustment counter) every run.
	if d := alpha - cur; d > -(cur+3)/4 && d < (cur+3)/4 {
		return
	}
	beta := clampInt64(alpha*dirBetaDefault/dirAlphaDefault, tunerBetaMin, tunerBetaMax)
	b.alpha, b.beta = alpha, beta
	t.last[k.class] = [2]int64{alpha, beta}
	t.adjustments.Inc()
	t.alphaGauge.Set(float64(alpha))
	t.betaGauge.Set(float64(beta))
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
