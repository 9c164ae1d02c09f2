// Package server is the SparkScore job server: a long-running driver service
// that accepts score, SKAT, resampling, and all-pairs eQTL requests over
// HTTP/JSON and runs them as concurrent jobs against one shared rdd.Context — the repo's
// counterpart of keeping a Spark driver alive behind a REST gateway (Livy,
// spark-jobserver) instead of spawning spark-submit per analysis.
//
// Three layers stack on the engine's multi-job scheduler:
//
//   - Scheduling: every request names a pool; the request's jobs are
//     submitted under one rdd.Context.Submit, so the engine's FIFO/FAIR
//     arbiter (weight, minShare) decides how concurrent requests share the
//     cluster's virtual core slots.
//   - Admission: each pool additionally caps how many requests run at once
//     and how many may queue behind them. A request beyond the queue cap is
//     rejected immediately with 429 and a Retry-After estimated from the
//     pool's recent service times; during drain every new request gets 503.
//   - Caching: results are cached under a fingerprint of the request's
//     lineage-determining parameters and revalidated against the engine's
//     storage epoch, so injected node loss invalidates exactly the entries
//     whose backing blocks died (see cache.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"sparkscore/internal/assoc"
	"sparkscore/internal/core"
	"sparkscore/internal/rdd"
)

// Config assembles a Server.
type Config struct {
	// Context is the shared driver context; its SchedulerConfig decides
	// FIFO/FAIR and the pool weights (see SchedulerConfig in pools.go).
	Context *rdd.Context
	// Analysis is the staged analysis every request runs against.
	Analysis *core.Analysis
	// EQTL, when set, enables the /v1/eqtl endpoint: the all-pairs association
	// analysis its paginated requests run against. Left nil, the endpoint
	// answers 501.
	EQTL *assoc.Analysis
	// Pools declares the serving pools. Requests naming an undeclared pool
	// fall into an implicit pool with default limits, as the engine does for
	// scheduling.
	Pools []PoolConfig
}

// Server handles job requests against one Context + Analysis pair.
type Server struct {
	ctx      *rdd.Context
	analysis *core.Analysis
	cache    *resultCache
	mux      *http.ServeMux

	// eqtl is the optional all-pairs analysis behind /v1/eqtl; the memo holds
	// its last full result so pages are sliced, not recomputed (see eqtl.go).
	eqtl      *assoc.Analysis
	eqtlMu    sync.Mutex
	eqtlRes   *assoc.Result
	eqtlEpoch uint64

	poolMu    sync.Mutex
	pools     map[string]*servingPool
	poolOrder []string

	stateMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	statMu      sync.Mutex
	reqSeq      uint64
	rejected429 uint64
	rejected503 uint64
	timedOut408 uint64
	closed499   uint64
	recent      []RequestRecord
}

// StatusClientClosedRequest is the nginx-convention status recorded when the
// client disconnected before its job finished. It is never written to a live
// connection (there is none left); it appears in /v1/jobs records and stats.
const StatusClientClosedRequest = 499

// New builds a Server over an already-staged analysis.
func New(cfg Config) (*Server, error) {
	if cfg.Context == nil || cfg.Analysis == nil {
		return nil, fmt.Errorf("server: Config needs both Context and Analysis")
	}
	s := &Server{
		ctx:      cfg.Context,
		analysis: cfg.Analysis,
		eqtl:     cfg.EQTL,
		cache:    newResultCache(),
		pools:    map[string]*servingPool{},
	}
	for _, p := range cfg.Pools {
		if _, ok := s.pools[p.Name]; ok {
			return nil, fmt.Errorf("server: duplicate pool %q", p.Name)
		}
		s.addPool(p)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/score", func(w http.ResponseWriter, r *http.Request) {
		s.serveJob(w, r, "score", &scoreRequest{})
	})
	s.mux.HandleFunc("/v1/skat", func(w http.ResponseWriter, r *http.Request) {
		s.serveJob(w, r, "skat", &skatRequest{})
	})
	s.mux.HandleFunc("/v1/resample", func(w http.ResponseWriter, r *http.Request) {
		s.serveJob(w, r, "resample", &resampleRequest{})
	})
	s.mux.HandleFunc("/v1/eqtl", func(w http.ResponseWriter, r *http.Request) {
		if s.eqtl == nil {
			writeError(w, &httpError{status: http.StatusNotImplemented,
				msg: "no all-pairs analysis configured (start the server with a phenotype matrix)"})
			return
		}
		s.serveJob(w, r, "eqtl", &eqtlRequest{srv: s})
	})
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new requests (they get 503) and blocks until every
// in-flight request has finished, honouring ctx for a deadline. It is the
// graceful half of shutdown; pair it with http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.stateMu.Lock()
	s.draining = true
	s.stateMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.draining
}

// ---- pools & admission ----

type servingPool struct {
	cfg   PoolConfig
	slots chan struct{} // buffered to maxConcurrent; holding a token = running

	mu      sync.Mutex
	queued  int
	served  uint64
	ewmaSec float64 // EWMA of request wall seconds, drives Retry-After
}

func (s *Server) addPool(cfg PoolConfig) *servingPool {
	p := &servingPool{cfg: cfg, slots: make(chan struct{}, cfg.maxConcurrent())}
	s.pools[cfg.Name] = p
	s.poolOrder = append(s.poolOrder, cfg.Name)
	return p
}

// pool resolves a request's pool name, creating an implicit default-limit
// pool on first use (empty names mean the engine's default pool).
func (s *Server) pool(name string) *servingPool {
	if name == "" {
		name = rdd.DefaultPool
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if p, ok := s.pools[name]; ok {
		return p
	}
	return s.addPool(PoolConfig{Name: name})
}

// httpError carries a rejection to the response writer.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; >0 adds a Retry-After header
}

// admit applies admission control for one request: 503 while draining, 429
// (with Retry-After) when the pool's queue is full, otherwise it blocks until
// a concurrency slot frees up and returns the wall seconds spent waiting. A
// queued request whose ctx ends (per-request deadline, client disconnect)
// gives its queue spot back and is rejected with the deadline/disconnect
// error. The caller must invoke release() when the request finishes.
func (s *Server) admit(ctx context.Context, p *servingPool) (queueSec float64, herr *httpError) {
	s.stateMu.Lock()
	if s.draining {
		s.stateMu.Unlock()
		s.note503()
		return 0, &httpError{status: http.StatusServiceUnavailable, msg: "server draining"}
	}
	s.inflight.Add(1)
	s.stateMu.Unlock()

	select {
	case p.slots <- struct{}{}:
		return 0, nil
	default:
	}
	p.mu.Lock()
	if p.queued >= p.cfg.maxQueue() {
		retry := p.retryAfterLocked()
		p.mu.Unlock()
		s.inflight.Done()
		s.note429()
		return 0, &httpError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("pool %q queue full (%d waiting)", p.cfg.Name, p.cfg.maxQueue()),
			retryAfter: retry,
		}
	}
	p.queued++
	p.mu.Unlock()
	start := time.Now()
	select {
	case p.slots <- struct{}{}:
		p.mu.Lock()
		p.queued--
		p.mu.Unlock()
		return time.Since(start).Seconds(), nil
	case <-ctx.Done():
		p.mu.Lock()
		p.queued--
		p.mu.Unlock()
		s.inflight.Done()
		return time.Since(start).Seconds(), s.cancelError(ctx, p)
	}
}

// cancelError classifies a request context's end: 408 with a Retry-After for
// an exceeded timeout_ms deadline, 499 for a client disconnect.
func (s *Server) cancelError(ctx context.Context, p *servingPool) *httpError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.statMu.Lock()
		s.timedOut408++
		s.statMu.Unlock()
		p.mu.Lock()
		retry := p.retryAfterLocked()
		p.mu.Unlock()
		return &httpError{
			status:     http.StatusRequestTimeout,
			msg:        "timeout_ms exceeded; job cancelled",
			retryAfter: retry,
		}
	}
	s.statMu.Lock()
	s.closed499++
	s.statMu.Unlock()
	return &httpError{status: StatusClientClosedRequest, msg: "client closed request; job cancelled"}
}

// release returns the slot and folds the request's wall time into the pool's
// service-time estimate.
func (s *Server) release(p *servingPool, wallSec float64) {
	<-p.slots
	p.mu.Lock()
	p.served++
	if p.ewmaSec == 0 {
		p.ewmaSec = wallSec
	} else {
		p.ewmaSec = 0.7*p.ewmaSec + 0.3*wallSec
	}
	p.mu.Unlock()
	s.inflight.Done()
}

// retryAfterLocked estimates when a queue slot should open: the backlog ahead
// of the caller divided by the pool's concurrency, times the recent service
// time. Requires p.mu.
func (p *servingPool) retryAfterLocked() int {
	est := p.ewmaSec
	if est == 0 {
		est = 1
	}
	backlog := float64(p.queued+len(p.slots)) / float64(p.cfg.maxConcurrent())
	sec := int(math.Ceil(est * backlog))
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) note429() { s.statMu.Lock(); s.rejected429++; s.statMu.Unlock() }
func (s *Server) note503() { s.statMu.Lock(); s.rejected503++; s.statMu.Unlock() }

// ---- job endpoints ----

// jobRequest is one decoded POST body: where it runs, what distinguishes its
// result, and how to compute it.
type jobRequest interface {
	pool() string
	validate() error
	// fingerprintParts lists everything (besides the server's fixed Analysis)
	// that determines the result; the pool is deliberately absent — it moves
	// work between queues, never changes the answer. timeout_ms is likewise
	// absent: it bounds how long the caller waits, never the answer itself.
	fingerprintParts(endpoint string) []string
	// timeoutMS is the request's timeout_ms as sent (0 = no deadline).
	timeoutMS() int64
	run(a *core.Analysis) (any, error)
}

// maxTimeoutMS is the largest timeout_ms whose deadline a time.Duration holds,
// about 292 years.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// maxBodyBytes bounds a job request body, which is a handful of small fields.
const maxBodyBytes = 1 << 20

// Response is the envelope every job endpoint returns.
type Response struct {
	Request  uint64 `json:"request"`
	Endpoint string `json:"endpoint"`
	Pool     string `json:"pool"`
	Cached   bool   `json:"cached"`
	// QueueSeconds is wall time spent waiting for a pool slot.
	QueueSeconds float64 `json:"queueSeconds"`
	// VirtualSeconds spans the request's jobs on the simulated cluster clock
	// (first admission to last JobEnd); VirtualQueueSeconds is how long the
	// request waited on that clock before its first job was admitted — under
	// FIFO this is the time spent behind other requests' jobs.
	VirtualSeconds      float64         `json:"virtualSeconds"`
	VirtualQueueSeconds float64         `json:"virtualQueueSeconds"`
	Jobs                int             `json:"jobs"`
	Result              json.RawMessage `json:"result"`
}

// RequestRecord is one finished (or rejected) request in the /v1/jobs log.
type RequestRecord struct {
	ID             uint64  `json:"id"`
	Endpoint       string  `json:"endpoint"`
	Pool           string  `json:"pool"`
	Status         int     `json:"status"`
	Cached         bool    `json:"cached"`
	WallSeconds    float64 `json:"wallSeconds"`
	QueueSeconds   float64 `json:"queueSeconds"`
	VirtualSeconds float64 `json:"virtualSeconds"`
	Jobs           int     `json:"jobs"`
	Error          string  `json:"error,omitempty"`
}

const recentCap = 128

func (s *Server) record(rec RequestRecord) {
	s.statMu.Lock()
	s.recent = append(s.recent, rec)
	if len(s.recent) > recentCap {
		s.recent = s.recent[len(s.recent)-recentCap:]
	}
	s.statMu.Unlock()
}

func (s *Server) nextRequestID() uint64 {
	s.statMu.Lock()
	s.reqSeq++
	id := s.reqSeq
	s.statMu.Unlock()
	return id
}

// decodeJob is the one decoder of a job request body, into req: exactly one
// JSON value of at most maxBodyBytes, no field req does not declare, then
// req.validate and timeout_ms's range, whose nanoseconds must fit the
// time.Duration serveJob converts it to (a larger value would wrap to a short
// or negative deadline). Its error is the 400's message.
func decodeJob(w http.ResponseWriter, body io.ReadCloser, req jobRequest) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := req.validate(); err != nil {
		return err
	}
	if ms := req.timeoutMS(); ms < 0 || ms > maxTimeoutMS {
		return fmt.Errorf("timeout_ms must be in [0, %d]", maxTimeoutMS)
	}
	return nil
}

// serveJob is the shared request path: decode (decodeJob; its error is a
// 400), consult the cache, pass admission control, run the work in the
// request's pool while observing its job spans, cache, and respond.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, endpoint string, req jobRequest) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return
	}
	if err := decodeJob(w, r.Body, req); err != nil {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	timeout := time.Duration(req.timeoutMS()) * time.Millisecond
	id := s.nextRequestID()
	poolName := req.pool()
	if poolName == "" {
		poolName = rdd.DefaultPool
	}
	resp := Response{Request: id, Endpoint: endpoint, Pool: poolName}

	// A draining server rejects all new requests, cached or not: the 503 is
	// the signal that this instance is going away.
	if s.Draining() {
		s.note503()
		herr := &httpError{status: http.StatusServiceUnavailable, msg: "server draining"}
		writeError(w, herr)
		s.record(RequestRecord{ID: id, Endpoint: endpoint, Pool: poolName, Status: herr.status, Error: herr.msg})
		return
	}

	fp := Fingerprint(req.fingerprintParts(endpoint)...)
	if body, ok := s.cache.get(fp, s.ctx.StorageEpoch()); ok {
		resp.Cached = true
		resp.Result = body
		writeJSON(w, http.StatusOK, resp)
		s.record(RequestRecord{ID: id, Endpoint: endpoint, Pool: poolName, Status: http.StatusOK, Cached: true})
		return
	}

	p := s.pool(poolName)
	// The request context ends when the client disconnects; timeout_ms layers
	// a server-side deadline on top. Either way the job is cancelled at its
	// next task boundary and the pool slot is returned.
	cctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, timeout)
		defer cancel()
	}
	start := time.Now()
	queueSec, herr := s.admit(cctx, p)
	if herr != nil {
		writeError(w, herr)
		s.record(RequestRecord{ID: id, Endpoint: endpoint, Pool: poolName, Status: herr.status,
			QueueSeconds: queueSec, Error: herr.msg})
		return
	}

	clock0 := s.ctx.VirtualTime()
	type outcome struct {
		payload any
		spans   []rdd.JobSpan
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		var payload any
		spans, err := s.ctx.Submit(rdd.Submission{Context: cctx, Pool: poolName}, func() (werr error) {
			// A panic on this goroutine would take the process down, and
			// every other request with it; it is this request's 500.
			defer func() {
				if r := recover(); r != nil {
					werr = fmt.Errorf("server: %s request panicked: %v", endpoint, r)
				}
			}()
			payload, werr = req.run(s.analysis)
			return werr
		})
		done <- outcome{payload: payload, spans: spans, err: err}
	}()

	var out outcome
	select {
	case out = <-done:
	case <-cctx.Done():
		// Answer the client within its deadline; the engine aborts the job at
		// the next task boundary, and only then is the slot handed back.
		herr := s.cancelError(cctx, p)
		go func() {
			<-done
			s.release(p, time.Since(start).Seconds())
		}()
		writeError(w, herr)
		s.record(RequestRecord{ID: id, Endpoint: endpoint, Pool: poolName, Status: herr.status,
			WallSeconds: time.Since(start).Seconds(), QueueSeconds: queueSec, Error: herr.msg})
		return
	}
	wallSec := time.Since(start).Seconds()
	s.release(p, wallSec)
	payload, spans, err := out.payload, out.spans, out.err

	rec := RequestRecord{
		ID: id, Endpoint: endpoint, Pool: poolName,
		WallSeconds: wallSec, QueueSeconds: queueSec, Jobs: len(spans),
	}
	if len(spans) > 0 {
		minStart, maxEnd := spans[0].StartVirtual, spans[0].EndVirtual
		for _, sp := range spans[1:] {
			if sp.StartVirtual < minStart {
				minStart = sp.StartVirtual
			}
			if sp.EndVirtual > maxEnd {
				maxEnd = sp.EndVirtual
			}
		}
		resp.VirtualSeconds = maxEnd - minStart
		if vq := minStart - clock0; vq > 0 {
			resp.VirtualQueueSeconds = vq
		}
	}
	rec.VirtualSeconds = resp.VirtualSeconds
	if err != nil {
		// A job the request's own context cancelled is the client's doing
		// (deadline or disconnect), not a server failure.
		var jc *rdd.JobCancelledError
		herr := &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		if errors.As(err, &jc) && cctx.Err() != nil {
			herr = s.cancelError(cctx, p)
		}
		rec.Status, rec.Error = herr.status, herr.msg
		s.record(rec)
		writeError(w, herr)
		return
	}
	body, err := json.Marshal(payload)
	if err != nil {
		rec.Status, rec.Error = http.StatusInternalServerError, err.Error()
		s.record(rec)
		writeError(w, &httpError{status: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	// Stamp the entry with the epoch after the run: any blocks the result
	// rests on were live at completion, and a later fault bumps the epoch and
	// invalidates it.
	s.cache.put(fp, s.ctx.StorageEpoch(), body)
	resp.QueueSeconds = queueSec
	resp.Jobs = len(spans)
	resp.Result = body
	rec.Status = http.StatusOK
	s.record(rec)
	writeJSON(w, http.StatusOK, resp)
}

// ---- request types ----

// jobFields are the body fields every job endpoint takes: the pool the
// request runs in and its timeout_ms. A request type embeds them, so they
// decode at the top level of its body.
type jobFields struct {
	PoolName  string `json:"pool,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

func (f *jobFields) pool() string     { return f.PoolName }
func (f *jobFields) timeoutMS() int64 { return f.TimeoutMS }

// topRequest is the body of the two asymptotic endpoints: the Top rows by
// p-value, 0 for all of them.
type topRequest struct {
	jobFields
	Top int `json:"top,omitempty"`
}

func (r *topRequest) validate() error {
	if r.Top < 0 {
		return fmt.Errorf("top must be >= 0")
	}
	return nil
}
func (r *topRequest) fingerprintParts(endpoint string) []string {
	return []string{endpoint, fmt.Sprintf("top=%d", r.Top)}
}

type scoreRequest struct{ topRequest }

// ScoreRow is one SNP's asymptotic score test in a score response.
type ScoreRow struct {
	SNP      int     `json:"snp"`
	Score    float64 `json:"score"`
	Variance float64 `json:"variance"`
	PValue   float64 `json:"pValue"`
}

func (r *scoreRequest) run(a *core.Analysis) (any, error) {
	results, err := a.MarginalAsymptotic()
	if err != nil {
		return nil, err
	}
	core.RankMarginal(results)
	if r.Top > 0 && r.Top < len(results) {
		results = results[:r.Top]
	}
	rows := make([]ScoreRow, len(results))
	for i, m := range results {
		rows[i] = ScoreRow{SNP: m.SNP, Score: m.Score, Variance: m.Variance, PValue: m.PValue}
	}
	return map[string]any{"snps": rows}, nil
}

type skatRequest struct{ topRequest }

// SKATRow is one SNP-set's asymptotic test in a skat response.
type SKATRow struct {
	Name     string  `json:"name"`
	SNPs     int     `json:"snps"`
	Observed float64 `json:"observed"`
	PValue   float64 `json:"pValue"`
}

func (r *skatRequest) run(a *core.Analysis) (any, error) {
	results, err := a.SetAsymptotic()
	if err != nil {
		return nil, err
	}
	core.RankSetAsymptotic(results)
	if r.Top > 0 && r.Top < len(results) {
		results = results[:r.Top]
	}
	rows := make([]SKATRow, len(results))
	for i, m := range results {
		rows[i] = SKATRow{Name: m.Name, SNPs: m.SNPs, Observed: m.Observed, PValue: m.PValue}
	}
	return map[string]any{"sets": rows}, nil
}

type resampleRequest struct {
	jobFields
	Method     string `json:"method"`
	Iterations int    `json:"iterations,omitempty"`
	Replicate  uint64 `json:"replicate,omitempty"`
}

func (r *resampleRequest) validate() error {
	switch r.Method {
	case "mc", "perm":
		if r.Iterations <= 0 {
			return fmt.Errorf("method %q needs iterations > 0", r.Method)
		}
	case "replicate":
		if r.Replicate == 0 {
			return fmt.Errorf(`method "replicate" needs replicate > 0`)
		}
	default:
		return fmt.Errorf(`method must be "mc", "perm", or "replicate"`)
	}
	return nil
}
func (r *resampleRequest) fingerprintParts(endpoint string) []string {
	return []string{endpoint, r.Method, fmt.Sprintf("iters=%d rep=%d", r.Iterations, r.Replicate)}
}

// ResampleSet is one SNP-set's line of a full resampling response.
type ResampleSet struct {
	Name     string  `json:"name"`
	Observed float64 `json:"observed"`
	Exceed   int     `json:"exceed"`
	PValue   float64 `json:"pValue"`
}

func (r *resampleRequest) run(a *core.Analysis) (any, error) {
	if r.Method == "replicate" {
		stats, err := a.Replicate(r.Replicate)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(a.Sets()))
		for k, set := range a.Sets() {
			names[k] = set.Name
		}
		return map[string]any{"replicate": r.Replicate, "sets": names, "statistics": stats}, nil
	}
	var res *core.Result
	var err error
	if r.Method == "mc" {
		res, err = a.MonteCarlo(r.Iterations)
	} else {
		res, err = a.Permutation(r.Iterations)
	}
	if err != nil {
		return nil, err
	}
	rows := make([]ResampleSet, len(res.Observed))
	for k := range rows {
		rows[k] = ResampleSet{Name: res.Sets[k].Name, Observed: res.Observed[k], Exceed: res.Exceed[k]}
		if res.PValues != nil {
			rows[k].PValue = res.PValues[k]
		}
	}
	return map[string]any{"iterations": res.Iterations, "sets": rows}, nil
}

// ---- introspection endpoints ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"mode":        s.ctx.SchedulerMode().String(),
		"virtualTime": s.ctx.VirtualTime(),
	})
}

// PoolStats is one pool's line in /v1/stats.
type PoolStats struct {
	Name          string `json:"name"`
	Weight        int    `json:"weight"`
	MinShare      int    `json:"minShare"`
	MaxConcurrent int    `json:"maxConcurrent"`
	MaxQueue      int    `json:"maxQueue"`
	Running       int    `json:"running"`
	Queued        int    `json:"queued"`
	Served        uint64 `json:"served"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.poolMu.Lock()
	pools := make([]PoolStats, 0, len(s.poolOrder))
	for _, name := range s.poolOrder {
		p := s.pools[name]
		p.mu.Lock()
		weight := p.cfg.Weight
		if weight <= 0 {
			weight = 1
		}
		pools = append(pools, PoolStats{
			Name: name, Weight: weight, MinShare: p.cfg.MinShare,
			MaxConcurrent: p.cfg.maxConcurrent(), MaxQueue: p.cfg.maxQueue(),
			Running: len(p.slots), Queued: p.queued, Served: p.served,
		})
		p.mu.Unlock()
	}
	s.poolMu.Unlock()
	s.statMu.Lock()
	requests, r429, r503 := s.reqSeq, s.rejected429, s.rejected503
	t408, c499 := s.timedOut408, s.closed499
	s.statMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":            s.ctx.SchedulerMode().String(),
		"draining":        s.Draining(),
		"virtualTime":     s.ctx.VirtualTime(),
		"storageEpoch":    s.ctx.StorageEpoch(),
		"completedJobs":   s.ctx.JobCount(),
		"requests":        requests,
		"rejected429":     r429,
		"rejected503":     r503,
		"timedOut408":     t408,
		"disconnected499": c499,
		"pools":           pools,
		"cache":           s.cache.stats(),
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	type jobLine struct {
		Action         string  `json:"action"`
		RDD            string  `json:"rdd"`
		Stages         int     `json:"stages"`
		Tasks          int     `json:"tasks"`
		VirtualSeconds float64 `json:"virtualSeconds"`
	}
	jobs := s.ctx.Jobs()
	lines := make([]jobLine, len(jobs))
	for i, j := range jobs {
		lines[i] = jobLine{
			Action: j.Action, RDD: j.RDD, Stages: j.Stages, Tasks: j.Tasks,
			VirtualSeconds: j.VirtualSeconds,
		}
	}
	s.statMu.Lock()
	recent := make([]RequestRecord, len(s.recent))
	copy(recent, s.recent)
	s.statMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"completedJobs": lines,
		"requests":      recent,
	})
}

// ---- response helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	if herr.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", herr.retryAfter))
	}
	writeJSON(w, herr.status, map[string]string{"error": herr.msg})
}
