package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// smokeSeconds sizes the smoke runs: 1/100 of the default work.
const smokeSeconds = defaultSeconds / 100.0

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	e.out = t.TempDir() // keep smoke results out of bench/out
	t.Cleanup(e.cleanup)
	return e
}

func TestSpecMatchesBenchmarkFile(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// Same seed, byte-identical graphs and op lists; another seed, others.
func TestSeedDeterminism(t *testing.T) {
	e := testEnv(t)
	digest := func(name string, seed int64) string {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.generate(seed, smokeSeconds/defaultSeconds, e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return w.digest()
	}
	for _, name := range workloadNames {
		a, b, c := digest(name, 7), digest(name, 7), digest(name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if v[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := beyond(100, 95); got != 5 {
		t.Errorf("beyond(100, 95) = %d, want 5", got)
	}
	if got := beyond(640, 95); got != 32 {
		t.Errorf("beyond(640, 95) = %d, want 32", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
}

// A block-timed workload contributes one latency sample per block — the
// block's mean — and the percentiles are over those.
func TestBlockPercentiles(t *testing.T) {
	rec := newRoundRec(0, 0)
	for b := 1; b <= 20; b++ {
		block := time.Duration(b) * blockSize * time.Microsecond // mean b µs per op
		rec.readLat = append(rec.readLat, micros(block)/blockSize)
		rec.readWall += block
		rec.reads += blockSize
	}
	rec.writeLat, rec.writes = []float64{3, 1, 2}, 3
	rec.cpu = 2 * time.Second
	got := rec.values()
	want := map[string]float64{
		"read_p50_us":   10,
		"read_p95_us":   19,
		"write_p50_us":  2,
		"reads_per_s":   20 * blockSize / rec.readWall.Seconds(),
		"cpu_s_per_kop": 2 / ((20*blockSize + 3) / 1000.0),
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9*w {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []map[string]float64{
		{"a": 5, "b": 1}, {"a": 1, "b": 2}, {"a": 4, "b": 9}, {"a": 2, "b": 3}, {"a": 3, "b": 4},
	}
	got := medianOfRounds(rounds)
	if got["a"] != 3 || got["b"] != 3 {
		t.Errorf("medianOfRounds = %v, want a=3 b=3", got)
	}
	if len(medianOfRounds(nil)) != 0 {
		t.Error("medianOfRounds(nil) is not empty")
	}
}

// Times shrink by the machine's speed factor, rates grow by it.
func TestAtReferenceSpeed(t *testing.T) {
	raw := map[string]float64{"reads_per_s": 100, "read_p50_us": 14, "read_p95_us": 28, "write_p50_us": 7, "cpu_s_per_kop": 1.4}
	want := map[string]float64{"reads_per_s": 140, "read_p50_us": 10, "read_p95_us": 20, "write_p50_us": 5, "cpu_s_per_kop": 1}
	got := atReferenceSpeed(raw, 1.4)
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s at speed 1.4 = %g, want %g", k, got[k], w)
		}
	}
	if len(got) != len(want) || raw["read_p50_us"] != 14 {
		t.Errorf("atReferenceSpeed returned %v and left %v", got, raw)
	}
	y, err := newYardstick(smokeSeconds / defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	defer y.free()
	a, b := y.run(), y.run()
	if a <= 0 || b <= 0 || y.speedFactor(a, b) <= 0 {
		t.Errorf("yardstick readings %v, %v", a, b)
	}
}

// A 1/100-scale run of every workload, untraced and traced: no op may
// fail, and every metric BENCHMARK.json names must come out exactly
// once, with its unit, on the run that owes it.
func TestSmokeAllWorkloads(t *testing.T) {
	e := testEnv(t)
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, name, 3, smokeSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", name, traced, res.Correct, res.Attempted, res.Failed, res.Messages)
			}
			var got, exp []string
			for k, v := range res.Metrics {
				got = append(got, k+" ["+v.Unit+"]")
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, k, v.Value)
				}
			}
			for k, u := range want[traced] {
				exp = append(exp, k+" ["+u+"]")
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", name, traced, len(got), len(exp))
			}
			for i := 0; i < min(len(got), len(exp)); i++ {
				if got[i] != exp[i] {
					t.Errorf("%s traced=%v: emitted %s where BENCHMARK.json has %s", name, traced, got[i], exp[i])
					break
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
			// The contract line carries exactly four keys.
			line, _ := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("contract line has keys %v", keys)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(e.out, "trace-serve-churn.json")); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
}
