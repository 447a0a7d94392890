package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/gate"
	"piumagcn/internal/obs"
	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

// The serving workloads drive the durable deployment the repository
// README documents, in-process: a gate with an intake ledger and two
// replicas with a journal each, every append fsynced, routing by cache
// affinity. Two clients run a closed loop through the gate with
// serve.Client. The load fits two CPUs: one process, two clients and
// Go runtime defaults.

const (
	replicas = 2
	clients  = 2
	// cachedPasses is how many times each client requests the whole
	// working set per round of serve-cached: enough for a round to
	// outlast CPU-time accounting granularity many times over, and the
	// same requests in every round.
	cachedPasses = 9
	// freshPerClient is the same for serve-fresh, whose requests each
	// simulate.
	freshPerClient = 4
	// smallEdges caps the graphs of the simulated runs served.
	smallEdges = 1024
	// freshSampleEvery: one fresh report in this many is compared with
	// the in-process reference after the timed phase, which keeps the
	// comparison from doubling the run's length.
	freshSampleEvery = 4
)

type job struct {
	exp  string
	opts bench.Options
}

func (j job) runID() string { return serve.RunID(j.exp, j.opts) }

// workingSet is what serve-cached repeats: the nine analytical
// experiments under three option seeds each, and two small simulated
// runs, all seeds derived from the run seed. Its 29 content addresses
// spread over both replicas by cache affinity; with a handful of runs
// one replica could end up with nearly all of them, and the run's CPU
// cost with it.
func workingSet(seed int64) []job {
	var ws []job
	for k := int64(0); k < 3; k++ {
		for _, id := range []string{"table1", "fig2", "fig3", "fig4", "fig9", "fig10", "ext-fusion", "ext-hetero", "ext-distributed"} {
			ws = append(ws, job{id, bench.Options{MaxSimEdges: smallEdges, Seed: seed*100 + k}})
		}
	}
	return append(ws,
		job{"fig7", bench.Options{MaxSimEdges: smallEdges, Quick: true, Seed: seed * 100}},
		job{"ext-degraded", bench.Options{MaxSimEdges: smallEdges, Quick: true, Seed: seed * 100}})
}

// freshJob is request n of serve-fresh: a new seed, so a new content
// address and a new simulation every time.
func freshJob(seed, n int64) job {
	return job{"fig7", bench.Options{MaxSimEdges: smallEdges, Quick: true, Seed: seed*1_000_000 + n}}
}

// reference runs j in-process through bench with the profiler the
// serving layer attaches, bypassing gate, HTTP, queue, cache and
// journal.
func reference(j job) (expRun, error) {
	e, err := bench.ByID(j.exp)
	if err != nil {
		return expRun{}, err
	}
	return runExperiment(context.Background(), e, j.opts, obs.NewProfiler(obs.ProfilerOptions{MaxSpans: -1}))
}

// httpServer is one in-process HTTP listener on the loopback.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight requests and for the
// serving goroutine to return.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

type cluster struct {
	stores      []*store.Store
	servers     []*serve.Server
	replicaHTTP []*httpServer
	gate        *gate.Gate
	gateHTTP    *httpServer
}

func startCluster(dir string, tr *tracer) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			err = errors.Join(err, c.close())
		}
	}()
	var urls []string
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("b%d", i)
		st, err := store.Open(filepath.Join(dir, name), store.SyncAlways)
		if err != nil {
			return c, err
		}
		c.stores = append(c.stores, st)
		srv := serve.New(serve.Config{Store: st, Replica: name})
		c.servers = append(c.servers, srv)
		hs, err := startHTTP(tr.handler("serve.handler", srv.Handler()))
		if err != nil {
			return c, err
		}
		c.replicaHTTP = append(c.replicaHTTP, hs)
		urls = append(urls, hs.url)
	}
	c.gate, err = gate.New(gate.Config{
		Backends:   urls,
		Policy:     gate.PolicyCacheAffinity,
		DataDir:    filepath.Join(dir, "gate"),
		LedgerSync: store.SyncAlways,
		HTTPClient: tr.client("gate.proxy", serve.DefaultHTTPClient()),
	})
	if err != nil {
		return c, err
	}
	c.gateHTTP, err = startHTTP(tr.handler("gate.handler", c.gate.Handler()))
	return c, err
}

// close stops the cluster front to back: the gate's listener and
// loops, then each replica's listener, worker pool and journal.
func (c *cluster) close() error {
	var errs []error
	if c.gateHTTP != nil {
		errs = append(errs, c.gateHTTP.close())
	}
	if c.gate != nil {
		c.gate.Shutdown()
	}
	for _, h := range c.replicaHTTP {
		errs = append(errs, h.close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range c.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, st := range c.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// storeBytes is the current size of the gate's ledger and the
// replicas' journals.
func (c *cluster) storeBytes() int64 {
	n := c.gate.Ledger().SizeBytes()
	for _, s := range c.servers {
		n += s.JournalBytes()
	}
	return n
}

// ranOnce requires run id to be held, done and never retried, by
// exactly one replica.
func (c *cluster) ranOnce(id string) error {
	holders := 0
	for _, s := range c.servers {
		v, ok := s.Get(id)
		if !ok {
			continue
		}
		holders++
		if v.Status != serve.StatusDone || v.Retries != 0 {
			return fmt.Errorf("run %s is %s after %d retries", id, v.Status, v.Retries)
		}
	}
	if holders != 1 {
		return fmt.Errorf("run %s is held by %d replicas, want 1", id, holders)
	}
	return nil
}

// setUp computes the working set's references, starts a cluster and
// completes the working set through it.
func setUp(dir string, ws []job, tr *tracer) (*cluster, map[job]*bench.Report, error) {
	refs := make(map[job]*bench.Report, len(ws))
	for _, j := range ws {
		r, err := reference(j)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", j.exp, err)
		}
		refs[j] = r.report
	}
	c, err := startCluster(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	cl := serve.NewClient(c.gateHTTP.url, nil)
	for _, j := range ws {
		res, status, err := cl.SubmitAndWait(context.Background(), j.exp, j.opts, "")
		if err := checkResponse(res, status, err, false, refs[j]); err != nil {
			return nil, nil, errors.Join(fmt.Errorf("completing the working set: %s: %w", j.exp, err), c.close())
		}
	}
	return c, refs, nil
}

func serveCached(cfg runConfig) (*outcome, error) { return serving(cfg, false) }
func serveFresh(cfg runConfig) (*outcome, error)  { return serving(cfg, true) }

type reply struct {
	job
	n      int64 // request number, from 1
	res    serve.RunResource
	status int
	err    error
	ms     float64
}

func serving(cfg runConfig, fresh bool) (o *outcome, err error) {
	o = &outcome{}
	tr := cfg.trace
	ws := workingSet(cfg.seed)
	var c *cluster
	var refs map[job]*bench.Report
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		next, nextRefs, err := setUp(filepath.Join(cfg.dir, fmt.Sprint("cluster-", rep)), ws, tr)
		if err != nil {
			if c != nil {
				err = errors.Join(err, c.close())
			}
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
		if c != nil {
			if err := c.close(); err != nil {
				return nil, errors.Join(err, next.close())
			}
		}
		c, refs = next, nextRefs
	}
	defer func() {
		if cerr := c.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("closing the cluster: %w", cerr))
		}
	}()

	cls := make([]*serve.Client, clients)
	for i := range cls {
		cls[i] = serve.NewClient(c.gateHTTP.url, tr.client("", serve.DefaultHTTPClient()))
	}
	perClient := cachedPasses * len(ws)
	if fresh {
		perClient = freshPerClient
	}
	var (
		reqNo    atomic.Int64
		growthMu sync.Mutex
		lastSize = c.storeBytes()
		growth   int64
		sampled  []reply
		// What the serve-layer metrics of a traced run need of each
		// reply; whole replies would grow the heap with the run.
		exec, nonexec []float64
		cached        int
	)
	sampleStore := func() {
		if tr == nil {
			return
		}
		growthMu.Lock()
		defer growthMu.Unlock()
		// Compaction shrinks the files; only growth counts.
		n := c.storeBytes()
		if n > lastSize {
			growth += n - lastSize
		}
		lastSize = n
	}
	err = o.runPhase(cfg, 1, func(round int) func() {
		got := make([][]reply, clients)
		var wg sync.WaitGroup
		for k := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perClient; j++ {
					n := reqNo.Add(1)
					jb := ws[(round+j+k*len(ws)/clients)%len(ws)]
					if fresh {
						jb = freshJob(cfg.seed, n)
					}
					id := tr.newID()
					start := time.Now()
					res, status, err := cls[k].SubmitAndWait(withSpan(context.Background(), id, n), jb.exp, jb.opts, "")
					tr.record("client.request", start, id, 0, n)
					got[k] = append(got[k], reply{job: jb, n: n, res: res, status: status, err: err, ms: ms(time.Since(start))})
					sampleStore()
				}
			}()
		}
		wg.Wait()
		return func() {
			once := map[string]error{}
			for _, rs := range got {
				for _, r := range rs {
					id := r.runID()
					if _, seen := once[id]; !seen {
						once[id] = c.ranOnce(id)
					}
					err := errors.Join(checkResponse(r.res, r.status, r.err, !fresh, refs[r.job]), once[id])
					o.record(err)
					o.latencyMS = append(o.latencyMS, r.ms)
					if fresh && err == nil && r.n%freshSampleEvery == 0 {
						sampled = append(sampled, r)
					}
					switch {
					case tr == nil:
					case r.res.Cached:
						cached++
						nonexec = append(nonexec, r.ms)
					default:
						exec = append(exec, float64(r.res.ElapsedMS))
						nonexec = append(nonexec, r.ms-float64(r.res.ElapsedMS))
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// The sampled fresh reports against their in-process references.
	var sim simTotals
	refAlloc := readRuntime().allocBytes
	for _, r := range sampled {
		ref, err := reference(r.job)
		if err == nil {
			err = sameSections(r.res.Report, ref.report)
		}
		if err != nil {
			o.fail(fmt.Errorf("request %d: %w", r.n, err))
		}
		sim.add(ref)
	}
	refAlloc = readRuntime().allocBytes - refAlloc
	if tr == nil {
		return o, nil
	}
	served := float64(len(o.latencyMS))
	vals := map[string]float64{
		"serve.cache_hit_ratio":   float64(cached) / served,
		"store.bytes_per_request": float64(growth) / served,
	}
	if err := sim.layers(vals, refAlloc); err != nil {
		return o, err
	}
	if err := servingLayers(vals, tr); err != nil {
		return o, err
	}
	if err := p50s(vals, map[string][]float64{"serve.exec_ms_p50": exec, "serve.nonexec_ms_p50": nonexec}); err != nil {
		return o, err
	}
	return o, o.setLayers(vals)
}

// servingLayers derives the serve and gate metrics of a serving run
// from its spans.
func servingLayers(vals map[string]float64, tr *tracer) error {
	inPhase := func(name string) []span {
		var out []span
		for _, s := range tr.named(name) {
			if s.Req > 0 {
				out = append(out, s)
			}
		}
		return out
	}
	durMS := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.Dur)
		}
		return out
	}
	gateSpans, proxySpans := inPhase("gate.handler"), inPhase("gate.proxy")
	proxied := map[int64]time.Duration{}
	for _, s := range proxySpans {
		proxied[s.Parent] += s.Dur
	}
	var gateSelf []float64
	for _, s := range gateSpans {
		gateSelf = append(gateSelf, ms(s.Dur-proxied[s.ID]))
	}
	if len(gateSpans) > 0 {
		vals["gate.proxy_attempts_per_request"] = float64(len(proxySpans)) / float64(len(gateSpans))
	}
	return p50s(vals, map[string][]float64{
		"serve.handler_ms_p50": durMS(inPhase("serve.handler")),
		"gate.handler_ms_p50":  durMS(gateSpans),
		"gate.proxy_ms_p50":    durMS(proxySpans),
		"gate.self_ms_p50":     gateSelf,
	})
}
