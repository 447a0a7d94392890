package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"piumagcn/internal/bench"
	"piumagcn/internal/graph"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/serve"
)

// tally counts operations and the ones whose output failed a check. A
// failed check is counted, never fatal, so one bad output cannot hide
// the rest of the run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// fail turns an operation already counted as attempted into a failure
// (a check that can only run after the timed phase).
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// slack absorbs float rounding when a simulated figure meets its bound
// exactly.
const slack = 1 + 1e-9

// eqBoundGFLOPS is the Section IV-A bandwidth-bound throughput of the
// SpMM r simulated, computed here from V, E, K and the byte widths
// rather than taken from the program: Eq. 1 (CSR bytes), Eq. 2 (feature
// bytes, no reuse), Eq. 3 (write bytes), Eq. 4 (2·E·K FLOP) and Eq. 5
// (traffic over the machine's aggregate slice bandwidth).
func eqBoundGFLOPS(r kernels.Result) float64 {
	v, e, k := float64(r.V), float64(r.E), float64(r.K)
	c := r.Cfg
	csr := (v+1)*8 + e*float64(c.ColIndexBytes) + e*float64(c.ValueBytes)
	features := k * e * float64(c.FeatureBytes)
	writes := k * v * float64(c.FeatureBytes)
	bw := float64(c.Cores) * c.SliceBandwidth
	seconds := (csr+features)/bw + writes/bw
	return 2 * e * k / seconds / 1e9
}

// checkResult applies the physical properties every simulated kernel
// result must satisfy.
func checkResult(r kernels.Result) error {
	if r.Elapsed <= 0 {
		return fmt.Errorf("non-positive simulated elapsed %v", r.Elapsed)
	}
	agg := float64(r.Cfg.Cores) * r.Cfg.SliceBandwidth
	if got := r.DeliveredBytes / r.Elapsed.Seconds(); got > agg*slack {
		return fmt.Errorf("delivered %.4g B/s exceeds the aggregate slice bandwidth %.4g B/s", got, agg)
	}
	b := r.Breakdown
	for _, ph := range []struct {
		name string
		v    int64
	}{
		{"nnz wait", int64(b.NNZWait)}, {"feature wait", int64(b.FeatureWait)},
		{"dma queue wait", int64(b.DMAQueueWait)}, {"compute", int64(b.Compute)},
		{"startup", int64(b.Startup)}, {"barrier", int64(b.Barrier)},
	} {
		if ph.v < 0 {
			return fmt.Errorf("negative %s phase %d", ph.name, ph.v)
		}
	}
	if r.Kernel == kernels.KindDMA || r.Kernel == kernels.KindVertexDMA {
		if b.FeatureWait != 0 {
			return fmt.Errorf("%s kernel stalled %d on feature reads; its DMA engine should absorb them", r.Kernel, b.FeatureWait)
		}
		if bound := eqBoundGFLOPS(r); r.GFLOPS > bound*slack {
			return fmt.Errorf("%s kernel %.4g GFLOPS exceeds the Eq. 1-5 bound %.4g", r.Kernel, r.GFLOPS, bound)
		}
	}
	return nil
}

// decodeResult reads a checkpointed kernel result back.
func decodeResult(p bench.Point) (kernels.Result, error) {
	var r kernels.Result
	if p.Kind != "kernels.Result" {
		return r, fmt.Errorf("point %q has kind %q, want kernels.Result", p.Label, p.Kind)
	}
	if err := json.Unmarshal(p.Value, &r); err != nil {
		return r, fmt.Errorf("point %q: %w", p.Label, err)
	}
	return r, nil
}

// checkPoints checks every point of one experiment run.
func checkPoints(points []pointObs) error {
	if len(points) == 0 {
		return errors.New("experiment completed no sweep points")
	}
	for _, p := range points {
		r, err := decodeResult(p.Point)
		if err != nil {
			return err
		}
		if err := checkResult(r); err != nil {
			return fmt.Errorf("point %q: %w", p.Label, err)
		}
	}
	return nil
}

// checkRerun re-simulates a healthy point through kernels.Run on the
// same graph and requires the identical result.
func checkRerun(p bench.Point, g *graph.CSR) error {
	r, err := decodeResult(p)
	if err != nil {
		return err
	}
	again, err := kernels.Run(r.Kernel, r.Cfg, g, r.K)
	if err != nil {
		return fmt.Errorf("re-running %q: %w", p.Label, err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, p.Value) {
		return fmt.Errorf("re-running %q gave a different result", p.Label)
	}
	return nil
}

// sameSections requires got's sections to equal the reference's.
func sameSections(got, want *bench.Report) error {
	if got == nil || want == nil {
		return errors.New("missing report")
	}
	if len(got.Sections) != len(want.Sections) {
		return fmt.Errorf("report %s has %d sections, reference has %d", want.ID, len(got.Sections), len(want.Sections))
	}
	for i := range want.Sections {
		if got.Sections[i] != want.Sections[i] {
			return fmt.Errorf("report %s section %q differs from the reference", want.ID, want.Sections[i].Heading)
		}
	}
	return nil
}

// checkResponse checks one SubmitAndWait outcome. ref may be nil when
// the report is compared later.
func checkResponse(res serve.RunResource, status int, err error, wantCached bool, ref *bench.Report) error {
	switch {
	case err != nil:
		return err
	case status != http.StatusOK:
		return fmt.Errorf("status %d: %s", status, res.Error)
	case res.Status != serve.StatusDone:
		return fmt.Errorf("run %s ended %s: %s", res.ID, res.Status, res.Error)
	case res.Cached != wantCached:
		return fmt.Errorf("run %s cached=%v, want %v", res.ID, res.Cached, wantCached)
	}
	if ref != nil {
		return sameSections(res.Report, ref)
	}
	return nil
}
