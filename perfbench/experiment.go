package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/obs"
)

// pointObs is one completed sweep point as the checkpoint observer saw
// it, with the host time it took.
type pointObs struct {
	bench.Point
	start time.Time
	host  time.Duration
}

// expRun is one in-process experiment execution.
type expRun struct {
	id     string
	report *bench.Report
	points []pointObs
	start  time.Time
	wall   time.Duration
}

// selfTime is the experiment's host time outside its sweep points.
func (e expRun) selfTime() time.Duration {
	d := e.wall
	for _, p := range e.points {
		d -= p.host
	}
	return d
}

// pointClock times sweep points from outside the bench package. The
// runners look up their checkpoint and profiler in the context
// immediately before simulating a point and nothing else reads it
// until the point completes, so the last Value call before the
// checkpoint observer fires marks the point's start.
type pointClock struct {
	context.Context
	mu   sync.Mutex
	last time.Time
}

func (c *pointClock) Value(key any) any {
	c.mark(time.Now())
	return c.Context.Value(key)
}

func (c *pointClock) mark(t time.Time) {
	c.mu.Lock()
	c.last = t
	c.mu.Unlock()
}

func (c *pointClock) since() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// runExperiment runs exp in-process with a fresh checkpoint whose
// observer collects every completed point. A non-nil prof is attached
// the way the serving layer attaches its per-run profiler, so the
// report carries the same profile section a served run's does.
func runExperiment(ctx context.Context, exp bench.Experiment, o bench.Options, prof *obs.Profiler) (expRun, error) {
	if prof != nil {
		ctx = obs.NewContext(ctx, prof)
	}
	cp := bench.NewCheckpoint()
	pc := &pointClock{Context: bench.WithCheckpoint(ctx, cp)}
	run := expRun{id: exp.ID, start: time.Now()}
	pc.mark(run.start)
	cp.SetObserver(func(p bench.Point) {
		now := time.Now()
		begin := pc.since()
		run.points = append(run.points, pointObs{Point: p, start: begin, host: now.Sub(begin)})
		pc.mark(now)
	})
	rep, err := exp.Run(pc, o)
	run.wall = time.Since(run.start)
	run.report = rep
	return run, err
}

// simTotals accumulates the simulator-side per-layer metrics over
// operations, each one or more in-process experiment runs: a sweep on
// paper-sweep, a reference run on serve-fresh.
type simTotals struct {
	events, hostNS, edges float64
	pointMS, selfMS       []float64
}

// add accounts one operation made of runs.
func (t *simTotals) add(runs ...expRun) {
	self := time.Duration(0)
	for _, r := range runs {
		self += r.selfTime()
		for _, p := range r.points {
			t.pointMS = append(t.pointMS, ms(p.host))
			t.hostNS += float64(p.host.Nanoseconds())
			if res, err := decodeResult(p.Point); err == nil {
				t.events += float64(res.Events)
				t.edges += float64(res.E)
			}
		}
	}
	t.selfMS = append(t.selfMS, ms(self))
}

// layers fills the sim, kernels and bench metrics; allocBytes is what
// the runs allocated. With no simulated events they stay 0.
func (t *simTotals) layers(vals map[string]float64, allocBytes float64) error {
	if t.events == 0 {
		return nil
	}
	vals["sim.events"] = t.events / float64(len(t.selfMS))
	vals["sim.host_ns_per_event"] = t.hostNS / t.events
	vals["sim.alloc_bytes_per_event"] = allocBytes / t.events
	vals["kernels.host_ns_per_edge"] = t.hostNS / t.edges
	m, err := medianOf(t.selfMS)
	if err != nil {
		return fmt.Errorf("bench.self_ms: %w", err)
	}
	vals["bench.self_ms"] = m
	return p50s(vals, map[string][]float64{"kernels.point_ms_p50": t.pointMS})
}
