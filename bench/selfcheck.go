package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the driver accepts or refuses a benchmark on.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// selfCheck runs set A and set B of this very binary — one process per
// run, sets and workloads interleaved, and run i of either set on
// seed+i, so the two sets execute identical inputs and their gap is the
// box's doing alone, while the spread within a set covers what the
// driver's does: one seed per run. It prints, per workload × end-to-end metric, both
// medians, their gap, the max–min and quartile spreads, the bound
// BENCHMARK.json fixes and the bound the issue's rule would fix from
// this evidence, max(5 %, 2 × gap). It is the tool the bounds were set
// with; its exit code is non-zero when a gap or (setup_s aside) a
// quartile spread exceeds its bound, or any run failed.
func selfCheck(root string, names []string, seed int64, seconds float64, runs int) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// values[set][workload][metric] = one value per run. The sets
	// alternate run by run, so a slow phase of the box falls on both.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
	}
	code := 0
	for i := 0; i < runs; i++ {
		for set := range values {
			for _, name := range names {
				cmd := exec.Command(exe, "-root", root, "-workload", name, "-trace", "0",
					"-seed", strconv.FormatInt(seed+int64(i), 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
				var line contractLine
				if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
					fmt.Fprintf(os.Stderr, "bench: set %c run %d of %s gave no result: %v %v\n", 'A'+set, i, name, err, jerr)
					return 1
				}
				if err != nil || !line.Correct {
					fmt.Fprintf(os.Stderr, "bench: set %c run %d of %s: %d of %d ops failed\n", 'A'+set, i, name, line.Failed, line.Attempted)
					code = 1
				}
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for k, v := range line.Metrics {
					values[set][name][k] = append(values[set][name][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c run %d %s done\n", 'A'+set, i, name)
			}
		}
	}
	fmt.Printf("%-13s %-14s %12s %12s %8s %8s %8s %8s %7s %7s\n", "workload", "metric", "median A", "median B", "gap%", "maxmin%", "iqrA%", "iqrB%", "bound%", "rule%")
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			a, b := values[0][name][m.Name], values[1][name][m.Name]
			ma, mb := median(a), median(b)
			all := append(append([]float64(nil), a...), b...)
			sort.Float64s(all)
			gap := (mb - ma) / ma
			spread := (all[len(all)-1] - all[0]) / median(all)
			ia, ib := quartileSpread(a), quartileSpread(b)
			verdict := ""
			if math.Abs(gap) > m.Bound {
				verdict = "  GAP EXCEEDS BOUND"
				code = 1
			}
			if m.Name != "setup_s" && math.Max(ia, ib) > m.Bound {
				verdict += "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-13s %-14s %12.5g %12.5g %+8.2f %8.2f %8.2f %8.2f %7.1f %7.1f%s\n",
				name, m.Name, ma, mb, 100*gap, 100*spread, 100*ia, 100*ib, 100*m.Bound, 100*math.Max(0.05, 2*math.Abs(gap)), verdict)
		}
	}
	return code
}
