// Command bench is the repository benchmark: four fixed-work workloads
// over the library API and the rspqd server, seven end-to-end metrics
// per workload, and a traced run that times the same reads at every
// layer they cross. See README.md in this directory.
//
//	go -C bench run . -workload flood-kernel -seed 7
//	go -C bench run . -workload serve-hot -trace 1
//	go -C bench run . -selfcheck
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} — the end-to-end metrics,
// or with -trace 1 the per-layer metrics. The exit code is non-zero
// when any op failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		root      = flag.String("root", "", "checkout of the repro module (default: found from the working directory)")
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all)")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", defaultSeconds, "size of the fixed work, as the time its timed rounds take on the reference box")
		trace     = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of runs of this binary and compare them against BENCHMARK.json's bounds")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set and workload")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	dir, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if *selfcheck {
		os.Exit(selfCheck(dir, names, *seed, *seconds, *runs))
	}
	e, err := newEnv(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	code := 0
	for _, n := range names {
		res, err := runOne(e, n, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			e.cleanup()
			os.Exit(1)
		}
		if err := report(e, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
		if !res.Correct {
			code = 1
		}
	}
	e.cleanup()
	os.Exit(code)
}

// findRoot locates the repro module: the given directory, or the
// nearest ancestor of the working directory whose go.mod declares
// "module repro".
func findRoot(given string) (string, error) {
	isRoot := func(dir string) bool {
		f, err := os.Open(filepath.Join(dir, "go.mod"))
		if err != nil {
			return false
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "module repro" {
				return true
			}
		}
		return false
	}
	if given != "" {
		if !isRoot(given) {
			return "", fmt.Errorf("%s is not a checkout of the repro module", given)
		}
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout of the repro module above the working directory")
		}
		dir = parent
	}
}

// contractLine is the result object the benchmark contract asks for.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name with its unit and the sample
// counts, writes the full result (machine record, raw round values) to
// bench/out, and ends with the contract line.
func report(e *env, res *runResult) error {
	kind, specs := "end-to-end", endToEnd
	if res.Trace {
		kind, specs = "per-layer (traced run)", perLayer
	}
	m := res.Machine
	fmt.Printf("# %s seed=%d seconds=%g digest=%s — %s metrics\n", res.Workload, m.Seed, res.Seconds, res.Digest, kind)
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d (rspqd %d) cpu=%q %s rev=%s load1=%.2f\n",
		m.NProc, m.GOMAXPROCS, m.RspqdGOMAXPROCS, m.CPUModel, m.GoVersion, m.GitRev, m.Load1)
	for _, s := range specs {
		fmt.Printf("%-36s %16.6g %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	if !res.Trace {
		fmt.Printf("# per round: %d reads in %d latency samples (%d beyond p95), %d writes in %d samples\n",
			res.Samples["reads"], res.Samples["read_samples"], res.Samples["beyond_read_p95"],
			res.Samples["writes"], res.Samples["write_samples"])
		raw := medianOfRounds(res.RawRounds)
		fmt.Printf("# as the clock read: setup_s %.6g reads_per_s %.6g read_p50_us %.6g read_p95_us %.6g write_p50_us %.6g cpu_s_per_kop %.6g\n",
			median(res.SetupRuns), raw["reads_per_s"], raw["read_p50_us"], raw["read_p95_us"], raw["write_p50_us"], raw["cpu_s_per_kop"])
		fmt.Printf("# machine speed factor (yardstick over its nominal %v): set-ups %.3f, rounds %.3f\n", yardstickNominal, res.SetupSpeed, res.RoundSpeed)
	} else if res.Modes != nil {
		fmt.Printf("# read modes from spans: p50 in %q, p95 in %q; share %% %v; mean us %v\n",
			res.Modes.P50Mode, res.Modes.P95Mode, res.Modes.Share, res.Modes.MeanUS)
		if res.Modes.ChildTimePct != nil {
			fmt.Printf("# share %% of read time inside child spans: %v\n", res.Modes.ChildTimePct)
		}
	}
	fmt.Printf("# ops attempted=%d failed=%d; oracle cross-checks=%d (unresolved %d); elapsed %.1fs\n",
		res.Attempted, res.Failed, res.OracleChecked, res.OracleUnresolved, res.ElapsedS)
	for _, msg := range res.Messages {
		fmt.Println("# FAILED:", msg)
	}
	suffix := ""
	if res.Trace {
		suffix = "-trace"
	}
	err := writeJSON(filepath.Join(e.out, fmt.Sprintf("%s-seed%d%s.json", res.Workload, m.Seed, suffix)), res)
	line, _ := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
	return err
}
