// The serving workload: server.New behind a real loopback net/http listener,
// configured as sparkserved configures it (FAIR scheduler, warmed U, an
// all-pairs analysis on /v1/eqtl), driven by closed-loop clients — each sends
// its next request when the reply to the last one has been read in full.
//
// Each client names its own pool ("client0", "client1"). Pools are implicit,
// with sparkserved's default limits, and never enter a result or its cache
// key; they are there because rdd.JobStart carries the pool, which is the only
// link from a job back to the request that ran it that is visible from
// outside the server.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparkscore/internal/assoc"
	"sparkscore/internal/core"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/server"
)

const (
	eqtlPageSize = 25 // four pages of the 100-pair top-K
	// replicateChecks is how many replicate responses are compared bit for bit
	// with a direct Analysis.Replicate call.
	replicateChecks = 50
)

// cacheable are the score and SKAT requests of the mix: two top values per
// endpoint, so four result-cache entries that every later request hits.
var cacheable = []request{
	{path: "/v1/score", body: `"top":10`},
	{path: "/v1/score", body: `"top":50`},
	{path: "/v1/skat", body: `"top":5`},
	{path: "/v1/skat", body: `"top":25`},
}

// request is one scheduled HTTP request; body holds its JSON fields without
// the pool, which the sending client adds.
type request struct {
	path      string
	body      string
	replicate uint64 // > 0 for /v1/resample replicate requests, which always run a job
}

func replicateRequest(i uint64) request {
	return request{path: "/v1/resample", body: fmt.Sprintf(`"method":"replicate","replicate":%d`, i), replicate: i}
}

func eqtlPageRequest(page int) request {
	return request{path: "/v1/eqtl", body: fmt.Sprintf(`"page":%d,"page_size":%d`, page, eqtlPageSize)}
}

// reply is what a client recorded about one request.
type reply struct {
	req        request
	client     int
	start, end int64 // nanoseconds on the run's clock
	ok         bool
	env        server.Response
	bytes      int
}

func (r reply) ms() float64 { return float64(r.end-r.start) / 1e6 }

// mixer deals the timed request mix in blocks of ten — seven unique
// replicates, two cacheable score/SKAT requests, one eQTL page — each block in
// a seeded order. Cacheable requests go round robin, so every cache entry is
// touched every 20 to 40 requests and never ages out of the 64-entry LRU
// behind the replicate results: after warm-up they all hit, whatever the
// interleaving of the clients.
type mixer struct {
	r         *rng.RNG
	replicate uint64
	cached    int
	page      int
	pages     int
}

func (mx *mixer) nextReplicate() request {
	mx.replicate++
	return replicateRequest(mx.replicate)
}

// segment deals n requests, rounded up to whole blocks: a cut block would
// skip a cacheable request's turn and let its entry age out.
func (mx *mixer) segment(n int) []request {
	out := make([]request, 0, n+10)
	for len(out) < n {
		block := make([]request, 0, 10)
		for i := 0; i < 7; i++ {
			block = append(block, mx.nextReplicate())
		}
		for i := 0; i < 2; i++ {
			block = append(block, cacheable[mx.cached%len(cacheable)])
			mx.cached++
		}
		block = append(block, eqtlPageRequest(mx.page%mx.pages))
		mx.page++
		mx.r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// serveEnv is one running server with its client side.
type serveEnv struct {
	ctx      *rdd.Context
	analysis *core.Analysis
	eqtl     *assoc.Analysis
	hs       *http.Server
	base     string
	client   *http.Client
	clients  int
	clock    func() int64

	stageSec, firstPageMs float64
}

// startServer stages the inputs and brings a server up the way sparkserved
// does, including the first eQTL page, which runs the memoised cross.
func startServer(in *inputs, clock func() int64) (*serveEnv, error) {
	s := &serveEnv{clients: runtime.NumCPU(), clock: clock}
	var err error
	if s.ctx, err = newContext(in.seed, ctxOptions{scheduler: server.SchedulerConfig(rdd.SchedFAIR, nil)}); err != nil {
		return nil, err
	}
	s.stageSec = timed(func() { err = in.stage(s.ctx) })
	if err != nil {
		return nil, err
	}
	if s.analysis, err = core.NewAnalysis(s.ctx, corePaths(), coreOptions(in.seed)); err != nil {
		return nil, err
	}
	if err = s.analysis.Warm(); err != nil {
		return nil, err
	}
	if s.eqtl, err = assoc.NewAnalysis(s.ctx, genoPath, exprPath, assoc.Config{TopK: eqtlTopK}); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Context: s.ctx, Analysis: s.analysis, EQTL: s.eqtl})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	go s.hs.Serve(ln) // returns when stop shuts the server down
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients}}

	first := s.send(0, eqtlPageRequest(0))
	if !first.ok {
		s.stop()
		return nil, fmt.Errorf("first /v1/eqtl page failed")
	}
	s.firstPageMs = first.ms()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutines.
func (s *serveEnv) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // nothing is in flight; a failed shutdown only leaks the port until exit
}

// send posts one request and reads the whole reply.
func (s *serveEnv) send(client int, req request) reply {
	body := fmt.Sprintf(`{%s,"pool":"client%d"}`, req.body, client)
	r := reply{req: req, client: client, start: s.clock()}
	resp, err := s.client.Post(s.base+req.path, "application/json", strings.NewReader(body))
	if err != nil {
		r.end = s.clock()
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = s.clock()
	r.bytes = len(raw)
	r.ok = err == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(raw, &r.env) == nil
	return r
}

// drive sends reqs from the closed-loop clients, which take the next unsent
// request as soon as their last reply is in, and returns the replies in
// schedule order with the elapsed seconds.
func (s *serveEnv) drive(reqs []request) ([]reply, float64) {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				replies[i] = s.send(c, reqs[i])
			}
		}(c)
	}
	wg.Wait()
	return replies, time.Since(t0).Seconds()
}

// segmentSample is one timed segment.
type segmentSample struct {
	replies []reply
	wallSec float64
	cpuSec  float64
	simSec  float64 // virtual-clock seconds the segment advanced
	jobs    []rdd.JobMetrics
	traced  []*jobRec
}

func (s *serveEnv) timedSegment(reqs []request) segmentSample {
	jobs0, sim0, cpu0 := len(s.ctx.Jobs()), s.ctx.VirtualTime(), cpuSeconds()
	replies, wall := s.drive(reqs)
	return segmentSample{
		replies: replies, wallSec: wall, cpuSec: cpuSeconds() - cpu0,
		simSec: s.ctx.VirtualTime() - sim0, jobs: s.ctx.Jobs()[jobs0:],
	}
}

// warmup sends every cacheable request once, from one client so that each
// miss is timed alone, then n requests of the regular mix from all clients —
// the mix, not replicates alone, because 64 replicate results in a row would
// push the fresh entries out of the LRU again. It returns the replies to the
// cacheable requests.
func (s *serveEnv) warmup(mx *mixer, n int) ([]reply, error) {
	var first []reply
	for _, req := range cacheable {
		first = append(first, s.send(0, req))
	}
	for p := 0; p < mx.pages; p++ {
		first = append(first, s.send(0, eqtlPageRequest(p)))
	}
	more, _ := s.drive(mx.segment(n))
	for _, r := range append(append([]reply(nil), first...), more...) {
		if !r.ok {
			return nil, fmt.Errorf("warm-up request %s {%s} failed", r.req.path, r.req.body)
		}
	}
	return first, nil
}

// runServe runs serve_mixed, untraced for the end-to-end metrics or traced for
// the per-layer ones.
func runServe(w workload, o runOptions) (*runReport, error) {
	rep := newRunReport(w, o)
	values := metricSet{}
	sh := w.Shape
	tr := newTracer(runtime.NumCPU())

	// Set-up, repeated on the untraced run for a median; the last server
	// built is the one that serves.
	repeats := setupRepeats
	if o.traced {
		repeats = 1
	}
	var in *inputs
	var s *serveEnv
	var setupSecs []float64
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if in, err = makeInputs(sh, o.seed); err != nil {
			return nil, err
		}
		if s, err = startServer(in, tr.now); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer s.stop()
	rep.Setups = repeats
	rep.InputDigest = in.digest

	mx := &mixer{r: rng.New(o.seed ^ 0x5e7e), pages: (eqtlTopK + eqtlPageSize - 1) / eqtlPageSize}
	first, err := s.warmup(mx, sh.Warmup)
	if err != nil {
		return nil, err
	}
	// The result digest covers what the cacheable requests returned: score and
	// SKAT tables and every eQTL page.
	var results [][]byte
	for _, r := range first {
		results = append(results, r.env.Result)
	}
	rep.ResultDigest = digestHex(results...)
	runtime.GC()

	var segments []segmentSample
	if !o.traced {
		var rss float64
		for start := time.Now(); len(segments) < 2 || time.Since(start).Seconds() < o.seconds; {
			segments = append(segments, s.timedSegment(mx.segment(sh.Segment)))
			if len(segments) == 1 {
				// Fixed work up to here, whatever the server's speed.
				rss = peakRSSMB()
			}
		}
		var rates, cpus, p50s, all []float64
		for _, seg := range segments {
			n := float64(len(seg.replies))
			rates = append(rates, n/seg.wallSec)
			cpus = append(cpus, seg.cpuSec/n*1e6)
			ms := latencies(seg.replies, nil)
			p50s = append(p50s, median(ms))
			all = append(all, ms...)
		}
		values["setup_s"] = median(setupSecs)
		values["ops_per_s"] = median(rates)
		values["cpu_us_per_op"] = median(cpus)
		values["latency_p50_ms"] = median(all)
		values["peak_rss_mb"] = rss
		rep.Samples = map[string][]float64{
			"setup_s": setupSecs, "ops_per_s": rates, "cpu_us_per_op": cpus,
			"latency_p50_ms": p50s, "peak_rss_mb": {rss},
		}
		fmt.Fprintf(o.log, "latency_p50_ms is the median of %d client-side request latencies\n", len(all))
	} else {
		// The traced run's segment count follows from -seconds, not from the
		// clock, so that its request and engine counts repeat for a seed.
		perSide := max(1, int(o.seconds/5))
		before := snapRuntime()
		// Untraced and traced segments alternate so that drift over the run
		// lands on both sides of trace_overhead_share. The listener stays
		// registered throughout and is paused for the untraced ones.
		s.ctx.AddListener(tr)
		var plain, traced []segmentSample
		for i := 0; i < perSide; i++ {
			tr.paused.Store(true)
			plain = append(plain, s.timedSegment(mx.segment(sh.Segment)))
			tr.paused.Store(false)
			seg := s.timedSegment(mx.segment(sh.Segment))
			seg.traced = tr.drain()
			traced = append(traced, seg)
		}
		segments = append(plain, traced...)
		runtimeMetrics(values, before, snapRuntime(), len(segments)*sh.Segment)
		if err := serveLayerMetrics(suiteEnv{m: values, in: in, log: o.log}, s, tr, first, plain, traced); err != nil {
			return nil, err
		}
		rep.Counts = countsOf(values)
		title := fmt.Sprintf("%s: per-stage breakdown of one traced segment of %d requests", w.Name, sh.Segment)
		if err := finishTrace(tr, o, w.Name, title, traced[0].traced); err != nil {
			return nil, err
		}
	}

	rep.Passes = len(segments)
	var timedReplies []reply
	for _, seg := range segments {
		for _, r := range seg.replies {
			rep.Attempted++
			if !r.ok {
				rep.Failed++
			}
		}
		timedReplies = append(timedReplies, seg.replies...)
	}
	verifyServe(rep, s, first, timedReplies)
	return rep, rep.finish(values)
}

// latencies returns the client-side milliseconds of the replies keep accepts
// (all of them for a nil keep).
func latencies(replies []reply, keep func(reply) bool) []float64 {
	var ms []float64
	for _, r := range replies {
		if keep == nil || keep(r) {
			ms = append(ms, r.ms())
		}
	}
	return ms
}
