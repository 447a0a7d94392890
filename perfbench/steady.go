package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// spec is the part of BENCHMARK.json the steadiness check reads.
type spec struct {
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
}

// steady runs each workload of BENCHMARK.json in two interleaved sets
// of runs of this binary, alternating which set goes first, each run
// with its own seed and the spec's run_seconds. For every end-to-end
// metric it prints each set's median and quartiles, whether the two
// medians agree within the metric's bound, and the spread of all runs
// (interquartile distance over median) against the bound. It exits 1
// when any run fails an operation, a median disagrees or a spread
// exceeds its bound.
func steady(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 5, "runs per set and workload")
	seed0 := fs.Int64("seed", 1000, "seed of the first run; every run gets its own")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "steady: %v\n", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(stderr, "steady: BENCHMARK.json: %v\n", err)
		return 2
	}
	seconds := float64(sp.RunSeconds)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "steady: %v\n", err)
		return 2
	}
	steadyAll := true
	for _, w := range sp.Workloads {
		var sets [2][]result
		for i := 0; i < *runs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				seed := *seed0 + int64(2*i+set)
				r, err := runOnce(exe, w.Name, seed, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "steady: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				fmt.Fprintf(stderr, "steady: %s set %c seed %d: %d attempted, %d failed\n",
					w.Name, 'A'+set, seed, r.Attempted, r.Failed)
				sets[set] = append(sets[set], r)
			}
		}
		fmt.Fprintf(stdout, "== %s: 2 sets x %d runs of %gs\n", w.Name, *runs, seconds)
		failedA, failedB := failed(sets[0]), failed(sets[1])
		fmt.Fprintf(stdout, "failed operations: A %d  B %d  %s\n", failedA, failedB, verdict(failedA == 0 && failedB == 0))
		steadyAll = steadyAll && failedA == 0 && failedB == 0
		fmt.Fprintf(stdout, "%-16s %6s %5s | %-30s | %-30s | %-16s | %s\n",
			"metric", "unit", "bound", "set A median [q1, q3]", "set B median [q1, q3]", "B vs A", "spread of all runs")
		for _, m := range sp.EndToEnd {
			var a, b []float64
			for _, r := range sets[0] {
				a = append(a, r.Metrics[m.Name].Value)
			}
			for _, r := range sets[1] {
				b = append(b, r.Metrics[m.Name].Value)
			}
			qa1, ma, qa3 := quartiles(a)
			qb1, mb, qb3 := quartiles(b)
			diff := (mb - ma) / ma
			agree := math.Abs(diff) <= m.Bound
			all := append(append([]float64(nil), a...), b...)
			q1, med, q3 := quartiles(all)
			spread := (q3 - q1) / med
			within := spread <= m.Bound
			steadyAll = steadyAll && agree && within
			third := ""
			if spread < m.Bound/3 {
				third = " (< bound/3)"
			}
			fmt.Fprintf(stdout, "%-16s %6s %5.2f | %-30s | %-30s | %+6.1f%% %-8s | %5.1f%% %s%s\n",
				m.Name, m.Unit, m.Bound,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, qa1, qa3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", mb, qb1, qb3),
				100*diff, verdict(agree), 100*spread, verdict(within), third)
		}
	}
	if !steadyAll {
		fmt.Fprintln(stdout, "steady: NOT steady")
		return 1
	}
	fmt.Fprintln(stdout, "steady: ok")
	return 0
}

// runOnce runs one workload in a child process of this binary and
// parses its result line.
func runOnce(exe, workload string, seed int64, seconds float64, stderr io.Writer) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

func failed(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "NO"
}
