package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// env is where a run may read and write: all of it inside the checkout.
type env struct {
	root  string // checkout of the repro module
	work  string // per-process scratch: graph files, rspqd data dirs and logs
	out   string // bench/out: result files, raw round values, traces
	rspqd string // built on first use
}

func newEnv(root string) (*env, error) {
	e := &env{
		root: root,
		work: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		out:  filepath.Join(root, "bench", "out"),
	}
	for _, d := range []string{e.work, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.work) }

// rspqdBinary builds cmd/rspqd from the checkout (once per process,
// before anything is timed) and returns the binary's path.
func (e *env) rspqdBinary() (string, error) {
	if e.rspqd != "" {
		return e.rspqd, nil
	}
	bin := filepath.Join(e.root, ".bench_build", "rspqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rspqd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/rspqd: %v\n%s", err, out)
	}
	e.rspqd = bin
	return bin, nil
}

// workload is one of the four benchmark workloads. generate derives
// every input from the seed; setUp goes from nothing to the first
// verified answer; round executes round r's fixed op list (r = 0 is the
// untimed warm-up) with all answer checking outside its timed segments.
type workload interface {
	generate(seed int64, scale float64, e *env) error
	digest() string
	setUp() error
	tearDown()
	round(r int, rec *roundRec, sp *spanLog) error
	holderPID() int // the process holding the graph
	// confined reports whether the workload runs on one CPU (see
	// confineToOneCPU): the serving workloads do.
	confined() bool
	checks() *checker
	// layers fills the per-layer metrics of the traced run: the ladder
	// over a seeded sample of the workload's reads plus the counters the
	// traced round collected.
	layers(sp *spanLog, m map[string]float64) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-small":
		return &paperSmall{}, nil
	case "flood-kernel":
		return &floodKernel{}, nil
	case "serve-hot":
		return newServeHot(), nil
	case "serve-churn":
		return newServeChurn(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced; it is
// written whole to bench/out and reduced to the contract line on stdout.
type runResult struct {
	Workload         string                 `json:"workload"`
	Trace            bool                   `json:"trace"`
	Seconds          float64                `json:"seconds"`
	Machine          machineRecord          `json:"machine"`
	Digest           string                 `json:"input_digest"`
	Correct          bool                   `json:"correct"`
	Attempted        int                    `json:"attempted"`
	Failed           int                    `json:"failed"`
	OracleChecked    int                    `json:"oracle_checked"`
	OracleUnresolved int                    `json:"oracle_unresolved"`
	Messages         []string               `json:"failure_messages,omitempty"`
	Metrics          map[string]metricValue `json:"metrics"`
	Samples          map[string]int         `json:"samples_per_round,omitempty"`
	Rounds           []map[string]float64   `json:"rounds,omitempty"`     // at reference speed
	RawRounds        []map[string]float64   `json:"raw_rounds,omitempty"` // as the clock read
	RoundSpeed       []float64              `json:"round_speed,omitempty"`
	SetupRuns        []float64              `json:"setup_runs_s,omitempty"` // as the clock read
	SetupSpeed       float64                `json:"setup_speed"`
	Modes            *modeReport            `json:"read_modes,omitempty"`
	ElapsedS         float64                `json:"elapsed_s"`
}

// runOne executes one workload once: the untraced run (at least 3
// set-ups, warm-up, 5 timed rounds → end-to-end metrics) or the traced
// run (one set-up, warm-up, one plain and one span-recorded round, the
// layer ladder → per-layer metrics). Rounds and set-ups run between
// readings of the yardstick.
func runOne(e *env, name string, seed int64, seconds float64, traced bool) (*runResult, error) {
	start := time.Now()
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	oneCPU := -1
	if w.confined() {
		cpu, restore, err := confineToOneCPU()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s runs unconfined: %v\n", name, err)
		} else {
			defer restore()
			oneCPU = cpu
		}
	}
	res := &runResult{Workload: name, Trace: traced, Seconds: seconds, Machine: machine(e.root, seed)}
	res.Machine.OneCPU = oneCPU
	y, err := newYardstick(seconds / defaultSeconds)
	if err != nil {
		return nil, err
	}
	defer y.free()
	if err := w.generate(seed, seconds/defaultSeconds, e); err != nil {
		return nil, fmt.Errorf("%s: generate: %w", name, err)
	}
	res.Digest = w.digest()
	// What generating the inputs left behind is not the program's: give
	// it back and start the peak-RSS mark afresh.
	debug.FreeOSMemory()
	resetPeakRSS()
	y.run() // its tables' first touch is not a reading

	// Set-up is repeated at least 3 times, and up to 15 while the
	// repetitions together stay under a second: paper-small's takes 30 ms
	// and three of those read 20 % apart between identical runs.
	before := y.run()
	for i := 0; i < 15; i++ {
		if i > 0 {
			if traced || (i >= 3 && sum(res.SetupRuns) >= 1) {
				break
			}
			w.tearDown()
		}
		runtime.GC() // the previous set-up's graph is not this one's to collect
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	res.SetupSpeed = y.speedFactor(before, y.run())

	if err := w.round(0, newRoundRec(0, 0), nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	if traced {
		err = tracedRounds(e, w, y, res)
	} else {
		err = measureRounds(w, y, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	c := w.checks()
	c.settle()
	res.Attempted, res.Failed = c.attempted, c.failed
	res.OracleChecked, res.OracleUnresolved = c.oracleChecked, c.oracleUnresolved
	res.Messages = c.messages
	res.Correct = c.failed == 0 && c.attempted > 0
	res.ElapsedS = time.Since(start).Seconds()
	return res, nil
}

// timedRound is what one round measured: raw, and at reference speed
// given the machine's speed factor while it ran.
type timedRound struct {
	rec      *roundRec
	raw, ref map[string]float64
	speed    float64
}

// runRound runs round r of w between two yardstick readings.
func runRound(w workload, y *yardstick, r int, sp *spanLog) (timedRound, error) {
	runtime.GC()
	t := timedRound{rec: newRoundRec(1<<12, 1<<8)}
	before := y.run()
	if err := w.round(r, t.rec, sp); err != nil {
		return t, fmt.Errorf("round %d: %w", r, err)
	}
	t.speed = y.speedFactor(before, y.run())
	t.raw = t.rec.values()
	t.ref = atReferenceSpeed(t.raw, t.speed)
	return t, nil
}

// peakRSS is the holder's VmHWM, less the yardstick's tables when the
// holder is this process.
func peakRSS(w workload, y *yardstick) float64 {
	mb := peakRSSMB(w.holderPID())
	if w.holderPID() == os.Getpid() {
		mb -= y.residentMB()
	}
	return mb
}

func measureRounds(w workload, y *yardstick, res *runResult) error {
	for r := 1; r <= timedRounds; r++ {
		t, err := runRound(w, y, r, nil)
		if err != nil {
			return err
		}
		res.RawRounds = append(res.RawRounds, t.raw)
		res.Rounds = append(res.Rounds, t.ref)
		res.RoundSpeed = append(res.RoundSpeed, t.speed)
		res.Samples = map[string]int{ // every round has the same counts
			"reads":            t.rec.reads,
			"read_samples":     len(t.rec.readLat),
			"beyond_read_p95":  beyond(len(t.rec.readLat), 95),
			"writes":           t.rec.writes,
			"write_samples":    len(t.rec.writeLat),
			"beyond_write_p50": beyond(len(t.rec.writeLat), 50),
		}
	}
	vals := medianOfRounds(res.Rounds)
	vals["setup_s"] = median(res.SetupRuns) / res.SetupSpeed
	vals["peak_rss_mb"] = peakRSS(w, y)
	res.Metrics = make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return nil
}

func tracedRounds(e *env, w workload, y *yardstick, res *runResult) error {
	plain, err := runRound(w, y, 1, nil)
	if err != nil {
		return fmt.Errorf("plain %w", err)
	}
	sp := newSpanLog()
	spanned, err := runRound(w, y, 2, sp)
	if err != nil {
		return fmt.Errorf("traced %w", err)
	}
	modes := sp.modes("read")
	res.Modes = &modes
	lm := make(map[string]float64, len(perLayer))
	if err := w.layers(sp, lm); err != nil {
		return fmt.Errorf("layer ladder: %w", err)
	}
	// The end-to-end metrics that could not hold a bound (README, "Noise
	// and bounds"), from the plain round.
	for _, name := range demoted {
		lm["bench."+name] = plain.ref[name]
	}
	// Per-read wall time with spans on, over the same without, both at
	// reference speed.
	lm["bench.trace_overhead_pct"] = 100 * (plain.ref["reads_per_s"]/spanned.ref["reads_per_s"] - 1)
	lm["bench.spans"] = float64(len(sp.spans))
	lm["bench.machine_speed"] = spanned.speed
	res.Metrics = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{lm[m.name], m.unit}
	}
	return writeJSON(filepath.Join(e.out, "trace-"+res.Workload+".json"), map[string]any{
		"workload": res.Workload, "machine": res.Machine, "read_modes": modes, "spans": sp.spans,
	})
}
