// Command perfbench is the repository's benchmark. It runs one named
// workload in its own process, drives the program only through its
// public entry points (bench experiments, store.Open, serve.New and
// its Handler, gate.New and its Handler, serve.Client), checks every
// output, and prints one JSON result line:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and a Chrome trace_event
// file is written under .bench_build. "perfbench steady" runs the
// steadiness check (see steady.go). README.md lists the workloads,
// metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workDir holds everything a run writes: data directories and traces.
// It is relative to the working directory, the checkout's root.
const workDir = ".bench_build"

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 9

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   *tracer
	dir     string // data directory of this run, removed at exit
	probe   *probe // machine-speed probe, run after every round
}

type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"paper-sweep", paperSweep},
	{"serve-cached", serveCached},
	{"serve-fresh", serveFresh},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "steady" {
		return steady(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-sweep, serve-cached or serve-fresh")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-sweep|serve-cached|serve-fresh, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	pr, err := newProbe(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer pr.close()
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir, probe: pr}
	if *traced == 1 {
		cfg.trace = newTracer()
	}

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, envLine(out.steal))
	var metrics map[string]metric
	if cfg.trace == nil {
		metrics, err = out.endToEnd(stdout)
	} else {
		// The traced run's own cost, against an untraced run's
		// cpu_norm_s, is the tracing overhead.
		if e2e, err := out.endToEnd(io.Discard); err == nil {
			fmt.Fprintf(stdout, "# traced cpu_norm_s=%.4f\n", e2e["cpu_norm_s"].Value)
		}
		metrics = out.layers
		path := filepath.Join(workDir, "trace-"+w.name+".json")
		if err = cfg.trace.writeChrome(path); err == nil {
			fmt.Fprintf(stdout, "# trace %s (%d spans)\n", path, len(cfg.trace.spans))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if out.firstErr != nil {
		fmt.Fprintf(stdout, "# first failed check: %v\n", out.firstErr)
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured.
type outcome struct {
	tally
	setupS     []float64         // each set-up, in seconds
	roundWallS []float64         // each round of the timed phase: wall seconds
	roundCPUS  []float64         // ... and process CPU seconds
	probeS     []float64         // the probe's CPU seconds after each round
	latencyMS  []float64         // each operation the latency metrics cover
	peakRSS    float64           // peak resident set after the phase's minimum work
	steal      float64           // machine CPU steal share over the timed phase
	runtime    runtimeSample     // allocation and GC CPU summed over the rounds
	layers     map[string]metric // per-layer metrics (traced runs)
}

// roundFunc runs round i of a timed phase: a fixed amount of work. The
// returned post function runs untimed after the round, for checks too
// costly to time with it.
type roundFunc func(i int) (post func())

// runPhase runs the timed phase in whole passes of pass rounds until
// cfg.seconds have elapsed, and the machine-speed probe after each
// round. Every run first does the same minimum, whatever the
// program's speed: whole passes until at least three rounds are done
// and the latency metrics have samples enough for a p90 with ten
// beyond it. The peak resident set is read when that minimum is done,
// so it covers the same work in every run of a seed.
func (o *outcome) runPhase(cfg runConfig, pass int, round roundFunc) error {
	ticks := readCPUTicks()
	start := time.Now()
	for i := 0; ; i++ {
		if i%pass == 0 && len(o.roundCPUS) >= 3 && len(o.latencyMS) >= 10*minBeyond {
			if o.peakRSS == 0 {
				o.peakRSS = peakRSSMB()
			}
			if time.Since(start) >= cfg.seconds {
				break
			}
		}
		t, c, rt := time.Now(), cpuSeconds(), readRuntime()
		post := round(i)
		o.roundWallS = append(o.roundWallS, time.Since(t).Seconds())
		o.roundCPUS = append(o.roundCPUS, cpuSeconds()-c)
		end := readRuntime()
		o.runtime.allocBytes += end.allocBytes - rt.allocBytes
		o.runtime.gcCPU += end.gcCPU - rt.gcCPU
		post()
		// Probe for a twentieth of the round's wall time, at least
		// once, so long rounds get as many probes per second as short
		// ones.
		until := time.Now().Add(time.Duration(float64(time.Second) * o.roundWallS[i] / 20))
		for {
			p, err := cfg.probe.run()
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			o.probeS = append(o.probeS, p)
			if time.Now().After(until) {
				break
			}
		}
	}
	o.steal = stealShare(ticks, readCPUTicks())
	return nil
}

// endToEnd derives the end-to-end metrics. cpu_norm_s is the rounds'
// median CPU time scaled by the probe (probe.go). The wall-clock
// figures — round time, throughput and latency — and the unscaled CPU
// time are printed on comment lines but not returned: on a shared VM
// they follow the host's load, which swings between runs far more than
// any bound a comparison could use (README.md, "Steadiness").
func (o *outcome) endToEnd(w io.Writer) (map[string]metric, error) {
	setup, err := medianOf(o.setupS)
	if err != nil {
		return nil, fmt.Errorf("setup_s: %w", err)
	}
	cpu, err := medianOf(o.roundCPUS)
	if err != nil {
		return nil, fmt.Errorf("cpu_norm_s: %w", err)
	}
	speed, err := medianOf(o.probeS)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	wall, err := medianOf(o.roundWallS)
	if err != nil {
		return nil, fmt.Errorf("sweep_s: %w", err)
	}
	p50, err := percentile(o.latencyMS, 50)
	if err != nil {
		return nil, fmt.Errorf("latency_p50_ms: %w", err)
	}
	p90, err := percentile(o.latencyMS, 90)
	if err != nil {
		return nil, fmt.Errorf("latency_p90_ms: %w", err)
	}
	top, err := highestPercentile(o.latencyMS)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# wall sweep_s=%.4f throughput_rps=%.4f latency_p50_ms=%.4f latency_p90_ms=%.4f (n=%d; highest supported p%g=%.4fms)\n",
		wall, float64(len(o.latencyMS))/sum(o.roundWallS), p50.Value, p90.Value, top.N, top.P, top.Value)
	fmt.Fprintf(w, "# cpu cpu_s=%.4f probe_s=%.6f (reference %.6f)\n", cpu, speed, probeRefS)
	fmt.Fprintf(w, "# rounds=%d operations=%d\n", len(o.roundWallS), len(o.latencyMS))
	return map[string]metric{
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {o.peakRSS, "MB"},
		"cpu_norm_s":  {cpu * probeRefS / speed, "s"},
	}, nil
}

// layerNames lists every per-layer metric with its unit. A traced run
// prints all of them; a layer that does no work on a workload reads 0.
var layerNames = map[string]string{
	"sim.events":                      "count",
	"sim.host_ns_per_event":           "ns",
	"sim.alloc_bytes_per_event":       "B",
	"kernels.host_ns_per_edge":        "ns",
	"kernels.point_ms_p50":            "ms",
	"graphgen.ms_p50":                 "ms",
	"bench.self_ms":                   "ms",
	"serve.handler_ms_p50":            "ms",
	"serve.exec_ms_p50":               "ms",
	"serve.nonexec_ms_p50":            "ms",
	"serve.cache_hit_ratio":           "ratio",
	"gate.handler_ms_p50":             "ms",
	"gate.proxy_ms_p50":               "ms",
	"gate.self_ms_p50":                "ms",
	"gate.proxy_attempts_per_request": "count",
	"store.bytes_per_request":         "B",
	"runtime.alloc_mb":                "MB",
	"runtime.gc_cpu_s":                "s",
}

// setLayers fills o.layers from vals, adding the runtime metrics and a
// zero for every layer the workload did not exercise.
func (o *outcome) setLayers(vals map[string]float64) error {
	rounds := float64(len(o.roundWallS))
	vals["runtime.alloc_mb"] = o.runtime.allocBytes / rounds / (1 << 20)
	vals["runtime.gc_cpu_s"] = o.runtime.gcCPU / rounds
	o.layers = map[string]metric{}
	for name, unit := range layerNames {
		o.layers[name] = metric{vals[name], unit}
	}
	for name := range vals {
		if _, ok := layerNames[name]; !ok {
			return fmt.Errorf("unknown per-layer metric %q", name)
		}
	}
	return nil
}

// p50 is the median of a per-layer sample, or 0 when the layer did no
// work; a sample too thin for a median is an error.
func p50(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	p, err := percentile(xs, 50)
	return p.Value, err
}

// p50s fills vals[name] = p50(xs) for each pair, stopping at the first
// refused percentile.
func p50s(vals map[string]float64, samples map[string][]float64) error {
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, err := p50(samples[n])
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		vals[n] = v
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
