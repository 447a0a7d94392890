package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the traced mode's recorder. Spans come only from the
// benchmark's own code around calls into each layer: sweep and point
// boundaries seen through the bench checkpoint observer, wrappers
// around the gate's and replicas' http.Handlers, and a wrapper around
// the gate's fan-out transport. Spans stay in memory and are written
// as one Chrome trace_event file when the run ends.

// Headers that carry span identity across the in-process HTTP hops.
// Spans of one client request share its request number.
const (
	parentHeader  = "X-Perfbench-Parent"
	requestHeader = "X-Perfbench-Request"
)

type span struct {
	Name   string
	Start  time.Duration // since the tracer's origin
	Dur    time.Duration
	ID     int64
	Parent int64
	Req    int64 // client request number; 0 outside the serving path
}

// tracer records spans. A nil *tracer is tracing off: every method is
// a no-op and the wrappers return what they wrap.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a span that began at start and ends now.
func (t *tracer) record(name string, start time.Time, id, parent, req int64) {
	t.recordDur(name, start, time.Since(start), id, parent, req)
}

// recordDur stores a span that began at start and lasted dur.
func (t *tracer) recordDur(name string, start time.Time, dur time.Duration, id, parent, req int64) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: start.Sub(t.t0), Dur: dur, ID: id, Parent: parent, Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// spanRef is the enclosing span a context carries into an HTTP hop.
type spanRef struct{ id, req int64 }

type spanKey struct{}

func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req})
}

// handler wraps h so every request it serves is a span named name,
// linked to the span the caller stamped into the request headers.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		id := t.newID()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
		t.record(name, start, id, parent, req)
	})
}

// client returns a copy of c whose transport stamps the context's span
// onto outgoing requests and, when name is non-empty, records each
// round trip (through the end of its response body) as a span.
func (t *tracer) client(name string, c *http.Client) *http.Client {
	if t == nil {
		return c
	}
	base := c.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	out := *c
	out.Transport = &tracedTransport{t: t, name: name, base: base}
	return &out
}

type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, linked := req.Context().Value(spanKey{}).(spanRef)
	id := ref.id
	if tt.name != "" {
		id = tt.t.newID()
	}
	if linked {
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
		req.Header.Set(requestHeader, strconv.FormatInt(ref.req, 10))
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if tt.name == "" {
		return resp, err
	}
	if err != nil {
		tt.t.record(tt.name, start, id, ref.id, ref.req)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.record(tt.name, start, id, ref.id, ref.req) }}
	return resp, nil
}

// spanBody ends a round-trip span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// writeChrome writes every span as a Chrome trace_event "X" event; the
// thread is the client request number, so one request's hops line up.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Req,
			"ts":   float64(s.Start.Nanoseconds()) / 1e3,
			"dur":  float64(s.Dur.Nanoseconds()) / 1e3,
			"args": map[string]int64{"id": s.ID, "parent": s.Parent, "request": s.Req},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
		w.Write(b)
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a read of the Go runtime's cumulative allocation
// and GC CPU counters.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}
