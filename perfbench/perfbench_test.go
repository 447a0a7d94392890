package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"piumagcn/internal/bench"
	"piumagcn/internal/ogb"
	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{50, 19, false}, {50, 20, true},
		{90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true},
		{50, 1, false}, {50, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", tc.p, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got.N != tc.n {
			t.Errorf("p%g of %d samples reports n=%d", tc.p, tc.n, got.N)
		}
	}
	if got, _ := percentile(seq(100), 90); got.Value != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (nearest rank)", got.Value)
	}
	top, err := highestPercentile(seq(1000))
	if err != nil || top.P != 99 || top.N != 1000 {
		t.Errorf("highest percentile of 1000 samples = %+v, %v; want p99 with n=1000", top, err)
	}
	if _, err := medianOf([]float64{3}); err == nil {
		t.Error("median of a single value was accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(seq(10)); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 3}); q1 != 1 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles(4,1,3) = %g %g %g", q1, q2, q3)
	}
}

// simulatedPoint runs one small DMA kernel and wraps its result as the
// checkpoint observer would deliver it.
func simulatedPoint(t *testing.T) (pointObs, kernels.Result) {
	t.Helper()
	products, err := ogb.ByName("products")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ogb.Generate(products, ogb.GenerateOptions{MaxEdges: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := piuma.DefaultConfig()
	cfg.Cores = 2
	res, err := kernels.Run(kernels.KindDMA, cfg, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	return pointObs{Point: encode(t, "dma", res)}, res
}

func encode(t *testing.T, label string, r kernels.Result) bench.Point {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return bench.Point{Label: label, Kind: "kernels.Result", Value: raw}
}

func TestChecksCountFailures(t *testing.T) {
	good, res := simulatedPoint(t)
	if err := checkPoints([]pointObs{good}); err != nil {
		t.Fatalf("a real simulation fails the checks: %v", err)
	}
	if bound := eqBoundGFLOPS(res); res.GFLOPS > bound || res.GFLOPS < bound/10 {
		t.Errorf("DMA kernel at %.3g GFLOPS against an Eq. 1-5 bound of %.3g", res.GFLOPS, bound)
	}

	fast := res
	fast.DeliveredBytes = 2 * fast.Elapsed.Seconds() * float64(fast.Cfg.Cores) * fast.Cfg.SliceBandwidth
	report := &bench.Report{ID: "fig2", Sections: []bench.Section{{Heading: "h", Body: "reference"}}}
	served := serve.RunResource{Status: serve.StatusDone, Report: &bench.Report{
		ID: "fig2", Sections: []bench.Section{{Heading: "h", Body: "something else"}},
	}}

	var tl tally
	tl.record(checkPoints([]pointObs{{Point: encode(t, "too fast", fast)}}))
	tl.record(checkResponse(served, 200, nil, false, report))
	tl.record(checkPoints([]pointObs{good}))
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("tally = %d attempted, %d failed; want 3 and 2", tl.attempted, tl.failed)
	}
	if !strings.Contains(tl.firstErr.Error(), "aggregate slice bandwidth") {
		t.Errorf("first failure = %v, want the bandwidth bound", tl.firstErr)
	}

	wait := res
	wait.Breakdown.FeatureWait = 1
	if err := checkResult(wait); err == nil {
		t.Error("a DMA kernel stalled on feature reads passed")
	}
	if err := checkResponse(serve.RunResource{}, 0, errors.New("wire"), false, nil); err == nil {
		t.Error("a transport error passed")
	}
}

func TestProbeRunsAndCloses(t *testing.T) {
	p, err := newProbe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := p.run()
		if err != nil || !(s > 0) {
			t.Fatalf("probe run %d = %g, %v; want a positive CPU time", i, s, err)
		}
	}
	if err := p.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := p.run(); err == nil {
		t.Error("a closed probe ran")
	}
}
