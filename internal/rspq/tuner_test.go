package rspq

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// observeRuns feeds n identical DirAuto runs with the given
// per-direction (work, nanos) totals into the tuner.
func observeRuns(tun *dirTuner, epoch uint64, m, n int, tdWork, tdNanos, buWork, buNanos int64) {
	for i := 0; i < n; i++ {
		dc := dirConfig{mode: DirAuto, tdWork: tdWork, tdNanos: tdNanos, buWork: buWork, buNanos: buNanos}
		tun.observe(epoch, m, &dc)
	}
}

// TestTunerAdjustsFromObservedCosts drives the tuner's state machine
// directly: no thresholds before tunerMinSamples runs per direction,
// an adjustment reflecting the measured cost ratio after, gauges and
// counter moving with it, and clamping at the α bounds.
func TestTunerAdjustsFromObservedCosts(t *testing.T) {
	tun := newDirTuner(metrics.NewRegistry())
	if _, _, ok := tun.thresholds(1, 4); ok {
		t.Fatal("fresh tuner must report no thresholds")
	}
	if g := tun.alphaGauge.Value(); g != dirAlphaDefault {
		t.Fatalf("initial α gauge = %v, want default %d", g, dirAlphaDefault)
	}

	// Top-down costs 40 ns/unit, bottom-up 1 ns/unit → α* = 40.
	observeRuns(tun, 1, 4, tunerMinSamples-1, 1000, 40000, 1000, 1000)
	if _, _, ok := tun.thresholds(1, 4); ok {
		t.Fatalf("thresholds before %d samples per direction", tunerMinSamples)
	}
	observeRuns(tun, 1, 4, 1, 1000, 40000, 1000, 1000)
	alpha, beta, ok := tun.thresholds(1, 4)
	if !ok || alpha != 40 {
		t.Fatalf("α = %d (ok=%v), want 40 from the 40:1 cost ratio", alpha, ok)
	}
	if want := clampInt64(40*dirBetaDefault/dirAlphaDefault, tunerBetaMin, tunerBetaMax); beta != want {
		t.Fatalf("β = %d, want %d (default β/α ratio)", beta, want)
	}
	if got := tun.adjustments.Value(); got != 1 {
		t.Fatalf("adjustments = %v, want 1", got)
	}
	if tun.alphaGauge.Value() != 40 || tun.betaGauge.Value() != float64(beta) {
		t.Fatalf("gauges (%v, %v) disagree with thresholds (40, %d)",
			tun.alphaGauge.Value(), tun.betaGauge.Value(), beta)
	}

	// Same costs again: inside the deadband, no flapping.
	observeRuns(tun, 1, 4, 4, 1000, 40000, 1000, 1000)
	if got := tun.adjustments.Value(); got != 1 {
		t.Fatalf("identical costs must not re-adjust: adjustments = %v", got)
	}

	// A different size class learns independently — and clamps at the
	// α ceiling under an extreme ratio.
	observeRuns(tun, 1, 64, tunerMinSamples, 1000, 100_000_000, 1000, 1)
	if alpha, _, ok := tun.thresholds(1, 64); !ok || alpha != tunerAlphaMax {
		t.Fatalf("extreme ratio: α = %d (ok=%v), want clamp %d", alpha, ok, tunerAlphaMax)
	}
	if alpha, _, _ := tun.thresholds(1, 4); alpha != 40 {
		t.Fatalf("size classes must not share buckets: class-4 α became %d", alpha)
	}
}

// TestTunerEpochCarryForward pins the mutation-epoch behavior: a new
// epoch restarts cost estimation but inherits the size class's last
// adjusted thresholds, so tuning survives mutations without a warm-up
// replay.
func TestTunerEpochCarryForward(t *testing.T) {
	tun := newDirTuner(metrics.NewRegistry())
	observeRuns(tun, 1, 4, tunerMinSamples, 1000, 40000, 1000, 1000)
	if alpha, _, ok := tun.thresholds(1, 4); !ok || alpha != 40 {
		t.Fatalf("setup: α = %d (ok=%v), want 40", alpha, ok)
	}
	// Epoch 2, same size class: thresholds carry forward immediately...
	if alpha, _, ok := tun.thresholds(2, 4); !ok || alpha != 40 {
		t.Fatalf("new epoch must inherit last thresholds: α = %d (ok=%v)", alpha, ok)
	}
	// ...but the cost estimates start fresh: one run at a new ratio must
	// not adjust yet.
	observeRuns(tun, 2, 4, 1, 1000, 2000, 1000, 1000)
	if got := tun.adjustments.Value(); got != 1 {
		t.Fatalf("fresh epoch bucket adjusted on %v samples", got)
	}
	observeRuns(tun, 2, 4, tunerMinSamples-1, 1000, 2000, 1000, 1000)
	if alpha, _, _ := tun.thresholds(2, 4); alpha != tunerAlphaMin {
		t.Fatalf("epoch-2 costs (ratio 2:1) must win once sampled: α = %d, want %d", alpha, tunerAlphaMin)
	}
}

// TestTunerIgnoresPinnedRuns pins the observation gate: runs outside
// DirAuto (and runs with no timed work at all) must not feed the
// estimator — their round mix does not reflect the heuristic.
func TestTunerIgnoresPinnedRuns(t *testing.T) {
	tun := newDirTuner(metrics.NewRegistry())
	for i := 0; i < 3*tunerMinSamples; i++ {
		dc := dirConfig{mode: DirTopDown, tdWork: 1000, tdNanos: 40000, buWork: 1000, buNanos: 1000}
		// runDone gates on dc.mode; model it here.
		if dc.mode == DirAuto {
			tun.observe(7, 4, &dc)
		}
		empty := dirConfig{mode: DirAuto}
		tun.observe(7, 4, &empty)
	}
	if _, _, ok := tun.thresholds(7, 4); ok {
		t.Fatal("pinned and workless runs must leave the tuner untrained")
	}
	if len(tun.buckets) != 0 {
		t.Fatalf("workless observations must not even create buckets: %d", len(tun.buckets))
	}
}

// TestTunerBucketCap pins the pruning rule: creating buckets past
// tunerMaxBuckets drops stale epochs, never the current one.
func TestTunerBucketCap(t *testing.T) {
	tun := newDirTuner(metrics.NewRegistry())
	for e := uint64(1); e <= tunerMaxBuckets; e++ {
		observeRuns(tun, e, 4, 1, 1000, 40000, 1000, 1000)
	}
	if len(tun.buckets) != tunerMaxBuckets {
		t.Fatalf("setup: %d buckets, want %d", len(tun.buckets), tunerMaxBuckets)
	}
	last := uint64(tunerMaxBuckets + 1)
	observeRuns(tun, last, 2, 1, 1000, 40000, 1000, 1000)
	observeRuns(tun, last, 4, 1, 1000, 40000, 1000, 1000)
	if len(tun.buckets) != 2 {
		t.Fatalf("cap must prune stale epochs down to the current one: %d buckets", len(tun.buckets))
	}
	for k := range tun.buckets {
		if k.epoch != last {
			t.Fatalf("stale epoch %d survived the prune", k.epoch)
		}
	}
}

// TestTunerSizeClasses pins the log2 bucketing of automaton sizes.
func TestTunerSizeClasses(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for m, want := range cases {
		if got := tunerSizeClass(m); got != want {
			t.Fatalf("tunerSizeClass(%d) = %d, want %d", m, got, want)
		}
	}
}

// TestEngineTunerWired is the end-to-end check: an Engine serving
// enough DirAuto queries trains its tuner, Stats mirrors the gauge
// values, and traced queries carry the thresholds that steered them —
// on the subword tier (the packed product sweep) and on the summary tier
// (the id-list sweep over a Ψtr plan's arcs) alike, since both resolve
// their thresholds in one place.
func TestEngineTunerWired(t *testing.T) {
	for _, pattern := range []string{"a*c*", "a*(bb+|())c*"} {
		s, err := NewSolver(pattern)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Random(30, []byte{'a', 'b', 'c'}, 0.12, 21)
		eng := NewEngine(s, g, EngineConfig{})
		states := s.Min.NumStates // what the tuner buckets a sweep by
		if eng.snapshot().algo == AlgoSummary {
			states = s.seqPlans()[0].posCount
		}
		st := eng.Stats()
		if st.DirAlpha != dirAlphaDefault || st.DirBeta != dirBetaDefault {
			t.Fatalf("%s: untrained engine must report the defaults: α=%v β=%v", pattern, st.DirAlpha, st.DirBeta)
		}
		_, tr := eng.SolveTraced(0, 5)
		if tr == nil {
			t.Fatal("traced query must return a trace")
		}
		if tr.DirAlpha == 0 || tr.DirBeta == 0 {
			t.Fatalf("%s (%s tier): trace must carry the thresholds in effect: α=%d β=%d", pattern, tr.Tier, tr.DirAlpha, tr.DirBeta)
		}
		if tr.Tuned {
			t.Fatal("untrained engine cannot claim tuned thresholds")
		}

		// Train the tuner by hand (real workloads need sustained traffic),
		// then confirm Stats and traces pick the thresholds up.
		observeRuns(eng.tuner, g.Epoch(), states, tunerMinSamples, 1000, 40000, 1000, 1000)
		if st := eng.Stats(); st.DirAlpha != 40 || st.TunerAdjustments != 1 {
			t.Fatalf("%s: trained engine stats: α=%v adjustments=%d, want 40 and 1", pattern, st.DirAlpha, st.TunerAdjustments)
		}
		_, tr = eng.SolveTraced(1, 6)
		if tr == nil || !tr.Tuned || tr.DirAlpha != 40 {
			t.Fatalf("%s: trace after training = %+v, want tuned α=40", pattern, tr)
		}
	}
}
