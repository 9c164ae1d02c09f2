package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

const testSeed = 11

// newAnalysis stages the shared test dataset on a fresh context so served
// and batch results can be compared across independent drivers.
func newAnalysis(t *testing.T, sched rdd.SchedulerConfig) (*rdd.Context, *core.Analysis) {
	t.Helper()
	ds, err := gen.Generate(gen.Config{Patients: 60, SNPs: 300, SNPSets: 10}, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes: 2, Spec: cluster.NodeSpec{Name: "srv", VCPUs: 8, MemGiB: 8, StorageGB: 80},
			ExecutorsPerNode: 2, CoresPerExecutor: 2, MemPerExecutorGiB: 2,
		},
		Seed:      testSeed,
		Scheduler: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "input")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(ctx, paths, core.Options{Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, a
}

func newTestServer(t *testing.T, cfgPools []PoolConfig, mode rdd.SchedulerMode) (*Server, *httptest.Server) {
	t.Helper()
	ctx, a := newAnalysis(t, SchedulerConfig(mode, cfgPools))
	s, err := New(Config{Context: ctx, Analysis: a, Pools: cfgPools})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// post sends a JSON body and decodes the envelope (on 200) or returns the
// raw response for error-path assertions.
func post(t *testing.T, hs *httptest.Server, path string, body any) (*Response, *http.Response) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	defer resp.Body.Close()
	var env Response
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return &env, resp
}

func TestServedScoreMatchesBatch(t *testing.T) {
	_, hs := newTestServer(t, nil, rdd.SchedFAIR)
	_, batch := newAnalysis(t, rdd.SchedulerConfig{})
	want, err := batch.MarginalAsymptotic()
	if err != nil {
		t.Fatal(err)
	}
	bySNP := map[int]core.MarginalResult{}
	for _, m := range want {
		bySNP[m.SNP] = m
	}
	for _, c := range []struct {
		body map[string]any
		rows int
	}{
		{map[string]any{"top": 5}, 5},
		{map[string]any{}, len(want)}, // no top means every SNP, not a default page
	} {
		env, _ := post(t, hs, "/v1/score", c.body)
		var payload struct {
			SNPs []ScoreRow `json:"snps"`
		}
		if err := json.Unmarshal(env.Result, &payload); err != nil {
			t.Fatal(err)
		}
		if len(payload.SNPs) != c.rows {
			t.Fatalf("%v: got %d rows, want %d", c.body, len(payload.SNPs), c.rows)
		}
		for _, row := range payload.SNPs {
			m, ok := bySNP[row.SNP]
			if !ok {
				t.Errorf("%v: served SNP %d not in batch results", c.body, row.SNP)
			} else if m.Score != row.Score || m.Variance != row.Variance || m.PValue != row.PValue {
				t.Errorf("%v: SNP %d: served (%v,%v,%v) != batch (%v,%v,%v)", c.body,
					row.SNP, row.Score, row.Variance, row.PValue, m.Score, m.Variance, m.PValue)
			}
		}
		if env.Jobs == 0 {
			t.Errorf("%v: score request reported zero jobs", c.body)
		}
	}
}

func TestServedSKATMatchesBatch(t *testing.T) {
	_, hs := newTestServer(t, nil, rdd.SchedFAIR)
	env, _ := post(t, hs, "/v1/skat", map[string]any{})
	var payload struct {
		Sets []SKATRow `json:"sets"`
	}
	if err := json.Unmarshal(env.Result, &payload); err != nil {
		t.Fatal(err)
	}

	_, batch := newAnalysis(t, rdd.SchedulerConfig{})
	want, err := batch.SetAsymptotic()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Sets) != len(want) {
		t.Fatalf("served %d sets, batch has %d", len(payload.Sets), len(want))
	}
	byName := map[string]SKATRow{}
	for _, row := range payload.Sets {
		byName[row.Name] = row
	}
	for _, m := range want {
		row, ok := byName[m.Name]
		if !ok {
			t.Fatalf("set %q missing from served results", m.Name)
		}
		if row.Observed != m.Observed || row.PValue != m.PValue {
			t.Errorf("set %s: served (%v,%v) != batch (%v,%v)",
				m.Name, row.Observed, row.PValue, m.Observed, m.PValue)
		}
	}
}

// TestServedResampleMatchesBatch serves Monte Carlo resampling on a
// single-slot, no-queue pool twice: on a fresh server, and after a request
// whose timeout_ms elapsed mid-job. The timed-out request must be answered 408
// + Retry-After near its deadline (not when the job would have finished), and
// the follow-up's 200 proves the cancelled job handed its only slot back and
// left the shared driver bit-equal to batch.
func TestServedResampleMatchesBatch(t *testing.T) {
	pools := []PoolConfig{{Name: "tiny", MaxConcurrent: 1, MaxQueue: -1}}
	_, hs := newTestServer(t, pools, rdd.SchedFAIR)
	_, batch := newAnalysis(t, rdd.SchedulerConfig{})
	matchesBatch := func(env *Response, iterations int) {
		t.Helper()
		var payload struct {
			Iterations int           `json:"iterations"`
			Sets       []ResampleSet `json:"sets"`
		}
		if err := json.Unmarshal(env.Result, &payload); err != nil {
			t.Fatal(err)
		}
		want, err := batch.MonteCarlo(iterations)
		if err != nil {
			t.Fatal(err)
		}
		if payload.Iterations != want.Iterations || len(payload.Sets) != len(want.Observed) {
			t.Fatalf("served %d iterations over %d sets, batch %d over %d",
				payload.Iterations, len(payload.Sets), want.Iterations, len(want.Observed))
		}
		for k, row := range payload.Sets {
			if row.Observed != want.Observed[k] || row.Exceed != want.Exceed[k] || row.PValue != want.PValues[k] {
				t.Errorf("set %s: served (%v,%d,%v) != batch (%v,%d,%v)", row.Name,
					row.Observed, row.Exceed, row.PValue, want.Observed[k], want.Exceed[k], want.PValues[k])
			}
		}
	}

	env, _ := post(t, hs, "/v1/resample", map[string]any{"method": "mc", "iterations": 6, "pool": "tiny"})
	matchesBatch(env, 6)

	start := time.Now()
	_, resp := post(t, hs, "/v1/resample",
		map[string]any{"method": "perm", "iterations": 5000, "pool": "tiny", "timeout_ms": 100})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("timed-out request got status %d, want 408", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("408 without Retry-After header")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("408 answered after %v, want close to the 100ms deadline", elapsed)
	}
	// The cancelled job winds down until its next task boundary; 429s until
	// then are expected.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		env, resp = post(t, hs, "/v1/resample", map[string]any{"method": "mc", "iterations": 4, "pool": "tiny"})
		if env != nil {
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("follow-up on the freed pool got status %d, want 200 (or 429 while the cancelled job winds down)", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("pool slot still busy 30s after the 408: cancelled job leaked its slot")
		}
	}
	matchesBatch(env, 4)
}

func TestServedReplicateMatchesBatch(t *testing.T) {
	_, hs := newTestServer(t, nil, rdd.SchedFAIR)
	env, _ := post(t, hs, "/v1/resample", map[string]any{"method": "replicate", "replicate": 3})
	var payload struct {
		Replicate  uint64    `json:"replicate"`
		Statistics []float64 `json:"statistics"`
	}
	if err := json.Unmarshal(env.Result, &payload); err != nil {
		t.Fatal(err)
	}
	_, batch := newAnalysis(t, rdd.SchedulerConfig{})
	want, err := batch.Replicate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Statistics) != len(want) {
		t.Fatalf("served %d statistics, batch %d", len(payload.Statistics), len(want))
	}
	for k := range want {
		if payload.Statistics[k] != want[k] {
			t.Errorf("set %d: served %v != batch %v", k, payload.Statistics[k], want[k])
		}
	}
}

func TestEQTLUnconfiguredGives501(t *testing.T) {
	_, hs := newTestServer(t, nil, rdd.SchedFIFO)
	_, resp := post(t, hs, "/v1/eqtl", map[string]any{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501 when no all-pairs analysis is configured", resp.StatusCode)
	}
}

// newEQTLServer stages the shared dataset plus an expression matrix and wires
// the all-pairs analysis into the server; the returned batch analysis is an
// independent driver over the same inputs.
func newEQTLServer(t *testing.T) (*Server, *httptest.Server, *assoc.Analysis) {
	t.Helper()
	build := func(sched rdd.SchedulerConfig) (*rdd.Context, *core.Analysis, *assoc.Analysis) {
		ctx, a := newAnalysis(t, sched)
		expr := gen.ExpressionMatrix(gen.Config{Patients: a.Patients()}, rng.New(testSeed), 5)
		var buf bytes.Buffer
		if err := data.WritePhenoMatrix(&buf, expr); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.FS().Write("input/phenomatrix.txt", buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		eq, err := assoc.NewAnalysis(ctx, "input/genotypes.txt", "input/phenomatrix.txt",
			assoc.Config{TopK: 12, HistBins: 128})
		if err != nil {
			t.Fatal(err)
		}
		return ctx, a, eq
	}
	ctx, a, eq := build(SchedulerConfig(rdd.SchedFAIR, nil))
	s, err := New(Config{Context: ctx, Analysis: a, EQTL: eq})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	_, _, batch := build(rdd.SchedulerConfig{})
	return s, hs, batch
}

func TestServedEQTLPaginatesAndMatchesBatch(t *testing.T) {
	_, hs, batch := newEQTLServer(t)
	want, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	var got []EQTLPair
	for page, pages := 0, 1; page < pages; page++ {
		env, _ := post(t, hs, "/v1/eqtl", map[string]any{"page": page, "page_size": 5})
		if env == nil {
			t.Fatalf("page %d not served", page)
		}
		var payload struct {
			Tested int64      `json:"tested"`
			TopK   int        `json:"topK"`
			FDR    EQTLFDR    `json:"fdr"`
			Pages  int        `json:"pages"`
			Pairs  []EQTLPair `json:"pairs"`
		}
		if err := json.Unmarshal(env.Result, &payload); err != nil {
			t.Fatal(err)
		}
		if payload.Tested != want.Tested || payload.TopK != len(want.TopK) {
			t.Fatalf("page %d: served %d tests / top-%d, batch %d / top-%d",
				page, payload.Tested, payload.TopK, want.Tested, len(want.TopK))
		}
		wantFDR := EQTLFDR{Alpha: want.FDR.Alpha, Bins: want.FDR.Bins,
			Threshold: want.FDR.Threshold, Discoveries: want.FDR.Discoveries}
		if payload.FDR != wantFDR {
			t.Fatalf("page %d: FDR %+v, batch %+v", page, payload.FDR, wantFDR)
		}
		got = append(got, payload.Pairs...)
		pages = payload.Pages
		if pages != 3 { // 12 pairs at page_size 5
			t.Fatalf("pages = %d, want 3", pages)
		}
	}
	if len(got) != len(want.TopK) {
		t.Fatalf("pages reassemble to %d pairs, batch top-K %d", len(got), len(want.TopK))
	}
	for i, p := range got {
		w := want.TopK[i]
		if p.SNP != w.SNP || p.Pheno != w.Pheno ||
			p.Score != w.Score || p.Variance != w.Variance || p.PValue != w.PValue {
			t.Fatalf("pair %d: served %+v != batch %+v", i, p, w)
		}
	}
}

// TestEQTLPagesShareOneCross pins the memo: after the first page runs the
// cross, further pages add no engine jobs, and a repeated page is a cache hit.
func TestEQTLPagesShareOneCross(t *testing.T) {
	s, hs, _ := newEQTLServer(t)
	first, _ := post(t, hs, "/v1/eqtl", map[string]any{"page": 0, "page_size": 5})
	if first.Jobs == 0 {
		t.Fatal("first page reported zero jobs; the cross did not run")
	}
	second, _ := post(t, hs, "/v1/eqtl", map[string]any{"page": 1, "page_size": 5})
	if second.Jobs != 0 {
		t.Fatalf("second page ran %d jobs; pages must slice the memoised result", second.Jobs)
	}
	again, _ := post(t, hs, "/v1/eqtl", map[string]any{"page": 0, "page_size": 5})
	if !again.Cached {
		t.Fatal("repeated page not served from the result cache")
	}
	if !bytes.Equal(first.Result, again.Result) {
		t.Fatal("cached page differs from computed page")
	}
	if _, resp := post(t, hs, "/v1/eqtl", map[string]any{"page": -1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("page=-1 got status %d, want 400", resp.StatusCode)
	}
	// A storage-epoch bump invalidates the memo: the next page recomputes.
	if err := s.ctx.FailExecutor(0); err != nil {
		t.Fatal(err)
	}
	recomputed, _ := post(t, hs, "/v1/eqtl", map[string]any{"page": 0, "page_size": 5})
	if recomputed.Cached || recomputed.Jobs == 0 {
		t.Fatalf("post-epoch page served cached=%v jobs=%d, want a fresh cross", recomputed.Cached, recomputed.Jobs)
	}
	if !bytes.Equal(first.Result, recomputed.Result) {
		t.Fatal("recomputed page differs after executor loss (lineage recovery broken?)")
	}
}

// TestEQTLPagePastTheEndIsEmpty: page and page_size come off the wire, and
// page × page_size used to overflow into a negative slice bound that took the
// whole process down. Any page past the end is an empty page, and a page size
// past the end is one page.
func TestEQTLPagePastTheEndIsEmpty(t *testing.T) {
	_, hs, _ := newEQTLServer(t)
	type page struct {
		Pages int        `json:"pages"`
		Pairs []EQTLPair `json:"pairs"`
	}
	for _, c := range []struct {
		body         map[string]any
		pages, pairs int
	}{
		{map[string]any{"page": math.MaxInt/100 + 1, "page_size": 100}, 1, 0},
		{map[string]any{"page": math.MaxInt, "page_size": math.MaxInt}, 1, 0},
		{map[string]any{"page": 3, "page_size": 5}, 3, 0},
		{map[string]any{"page": 0, "page_size": math.MaxInt}, 1, 12},
	} {
		env, resp := post(t, hs, "/v1/eqtl", c.body)
		if env == nil {
			t.Fatalf("%v: status %d, want 200", c.body, resp.StatusCode)
		}
		var got page
		if err := json.Unmarshal(env.Result, &got); err != nil {
			t.Fatal(err)
		}
		if got.Pages != c.pages || len(got.Pairs) != c.pairs {
			t.Errorf("%v: %d pairs of %d pages, want %d of %d", c.body, len(got.Pairs), got.Pages, c.pairs, c.pages)
		}
	}
}

// panickingRequest is a score request whose work panics.
type panickingRequest struct{ scoreRequest }

func (*panickingRequest) run(*core.Analysis) (any, error) { panic("boom") }

// TestPanickingRequestIs500: a panic under a request's work is that request's
// 500 and a line in the job log, and the server goes on serving.
func TestPanickingRequestIs500(t *testing.T) {
	s, hs := newTestServer(t, nil, rdd.SchedFAIR)
	rec := httptest.NewRecorder()
	s.serveJob(rec, httptest.NewRequest(http.MethodPost, "/v1/boom", strings.NewReader("{}")), "boom", &panickingRequest{})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom") {
		t.Fatalf("status %d body %s, want a 500 naming the panic", rec.Code, rec.Body)
	}
	s.statMu.Lock()
	last := s.recent[len(s.recent)-1]
	s.statMu.Unlock()
	if last.Endpoint != "boom" || last.Status != http.StatusInternalServerError || !strings.Contains(last.Error, "panicked") {
		t.Fatalf("job log records %+v, want the 500", last)
	}
	if env, resp := post(t, hs, "/v1/score", map[string]any{"top": 1}); env == nil {
		t.Fatalf("the next request got status %d; the panic leaked its pool slot or the server", resp.StatusCode)
	}
}

func TestConcurrentRequestsFromPools(t *testing.T) {
	pools := []PoolConfig{
		{Name: "interactive", Weight: 3, MinShare: 4},
		{Name: "batch", Weight: 1},
	}
	_, hs := newTestServer(t, pools, rdd.SchedFAIR)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		pool := "interactive"
		if i%2 == 1 {
			pool = "batch"
		}
		rep := uint64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"method": "replicate", "replicate": rep, "pool": pool})
			resp, err := http.Post(hs.URL+"/v1/resample", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("replicate %d in %s: status %d", rep, pool, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCacheHitAndEpochInvalidation(t *testing.T) {
	s, hs := newTestServer(t, nil, rdd.SchedFAIR)
	req := map[string]any{"top": 3}
	first, _ := post(t, hs, "/v1/score", req)
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	second, _ := post(t, hs, "/v1/score", req)
	if !second.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result differs from computed result")
	}
	// Injected executor loss bumps the storage epoch: the cached entry's
	// backing blocks may be gone, so the next request recomputes.
	if err := s.ctx.FailExecutor(0); err != nil {
		t.Fatal(err)
	}
	third, _ := post(t, hs, "/v1/score", req)
	if third.Cached {
		t.Fatal("request served from cache across a storage epoch bump")
	}
	if !bytes.Equal(first.Result, third.Result) {
		t.Fatal("recomputed result differs after executor loss (lineage recovery broken?)")
	}
	stats := s.cache.stats()
	if stats.Invalidations != 1 {
		t.Fatalf("cache invalidations = %d, want 1", stats.Invalidations)
	}
}

func TestQueueFullGives429WithRetryAfter(t *testing.T) {
	pools := []PoolConfig{{Name: "tiny", MaxConcurrent: 1, MaxQueue: -1}}
	s, hs := newTestServer(t, pools, rdd.SchedFAIR)
	// Occupy the pool's only slot so the next request cannot run or queue.
	p := s.pool("tiny")
	p.slots <- struct{}{}
	defer func() { <-p.slots }()

	_, resp := post(t, hs, "/v1/score", map[string]any{"pool": "tiny"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestDrainRejectsNewRequestsAndFinishesInFlight(t *testing.T) {
	s, hs := newTestServer(t, nil, rdd.SchedFAIR)
	// An in-flight request admitted before the drain must complete.
	started := make(chan struct{})
	inFlightOK := make(chan error, 1)
	go func() {
		close(started)
		body, _ := json.Marshal(map[string]any{"method": "replicate", "replicate": 1})
		resp, err := http.Post(hs.URL+"/v1/resample", "application/json", bytes.NewReader(body))
		if err != nil {
			inFlightOK <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inFlightOK <- fmt.Errorf("in-flight request got %d", resp.StatusCode)
			return
		}
		inFlightOK <- nil
	}()
	<-started
	// Let the request pass admission: wait until it holds the pool's slot (or
	// has already answered). A fixed sleep loses this race on a loaded host
	// under -race, and the drain then rightly 503s the request.
	slots := s.pool("").slots
	for deadline := time.Now().Add(10 * time.Second); len(slots) == 0 && len(inFlightOK) == 0 && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-inFlightOK; err != nil {
		t.Fatal(err)
	}
	_, resp := post(t, hs, "/v1/score", map[string]any{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", health.Status)
	}
}

func TestStatsAndJobsEndpoints(t *testing.T) {
	pools := []PoolConfig{{Name: "interactive", Weight: 2}}
	_, hs := newTestServer(t, pools, rdd.SchedFAIR)
	post(t, hs, "/v1/score", map[string]any{"pool": "interactive", "top": 2})

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Mode          string      `json:"mode"`
		CompletedJobs int         `json:"completedJobs"`
		Requests      uint64      `json:"requests"`
		Pools         []PoolStats `json:"pools"`
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	// The key set is a contract: bench/serve_layers.go reads the first three,
	// and the last two reported an online tuner that no longer exists.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]bool{
		"requests": true, "rejected429": true, "timedOut408": true,
		"retunes": false, "defaultParallelism": false,
	} {
		if _, ok := keys[key]; ok != want {
			t.Errorf("/v1/stats has key %q: %v, want %v", key, ok, want)
		}
	}
	if stats.Mode != "FAIR" {
		t.Errorf("mode %q, want FAIR", stats.Mode)
	}
	if stats.CompletedJobs == 0 || stats.Requests == 0 {
		t.Errorf("stats report no work: %+v", stats)
	}
	var served uint64
	for _, p := range stats.Pools {
		if p.Name == "interactive" {
			served = p.Served
		}
	}
	if served != 1 {
		t.Errorf("interactive pool served = %d, want 1", served)
	}

	jresp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var jobs struct {
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs.Requests) != 1 || jobs.Requests[0].Endpoint != "score" {
		t.Errorf("request log = %+v, want one score entry", jobs.Requests)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, nil, rdd.SchedFIFO)
	const timeoutRange = "timeout_ms must be in [0, 9223372036854]"
	cases := []struct {
		path string
		body string
		want string // a substring of the error, when the case pins one
	}{
		{"/v1/score", `{"top": -1}`, ""},
		{"/v1/resample", `{"method": "bogus"}`, ""},
		{"/v1/resample", `{"method": "mc"}`, ""},
		{"/v1/resample", `{"method": "replicate"}`, ""},
		{"/v1/skat", `{"unknown": true}`, ""},
		// Only the score and skat bodies take top; no body takes the
		// embedded structs' own names.
		{"/v1/resample", `{"method": "mc", "iterations": 1, "top": 1}`, "unknown field"},
		{"/v1/score", `{"jobFields": {}}`, "unknown field"},
		{"/v1/skat", `{"topRequest": {"top": 1}}`, "unknown field"},
		{"/v1/score", `{"timeout_ms": -1}`, timeoutRange},
		{"/v1/score", `{"timeout_ms": 9223372036855}`, timeoutRange},
		// ~584 years: its nanoseconds wrap time.Duration to a 448 µs deadline.
		{"/v1/resample", `{"method": "mc", "iterations": 1000, "timeout_ms": 18446744073710}`, timeoutRange},
		// ~295 years: its nanoseconds wrap negative.
		{"/v1/skat", `{"timeout_ms": 9300000000000}`, timeoutRange},
		// A body is exactly one JSON value of at most 1 MiB.
		{"/v1/score", `{"top":3}garbage`, "bad request body"},
		{"/v1/score", `{"top":3} {"top":4}`, "data after the JSON value"},
		{"/v1/score", `{"pool": "` + strings.Repeat("x", 1<<20) + `"}`, "request body too large"},
	}
	for _, c := range cases {
		resp, err := http.Post(hs.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s %.80s: status %d, %s; want 400 with %q", c.path, c.body, resp.StatusCode, body, c.want)
		}
	}
}

// TestRequestKeys: pool and timeout_ms decode at the top level of every job
// body, beside the endpoint's own keys.
func TestRequestKeys(t *testing.T) {
	for _, c := range []struct {
		req  jobRequest
		body string
	}{
		{&scoreRequest{}, `{"pool": "p", "timeout_ms": 7, "top": 2}`},
		{&skatRequest{}, `{"pool": "p", "timeout_ms": 7, "top": 2}`},
		{&resampleRequest{}, `{"pool": "p", "timeout_ms": 7, "method": "mc", "iterations": 2}`},
		{&eqtlRequest{}, `{"pool": "p", "timeout_ms": 7, "page": 1, "page_size": 2}`},
	} {
		if err := decodeJob(httptest.NewRecorder(), io.NopCloser(strings.NewReader(c.body)), c.req); err != nil {
			t.Fatalf("%T %s: %v", c.req, c.body, err)
		}
		if c.req.pool() != "p" || c.req.timeoutMS() != 7 {
			t.Errorf("%T %s: pool %q, timeout_ms %d", c.req, c.body, c.req.pool(), c.req.timeoutMS())
		}
	}
	// The eqtl body takes no top (TestBadRequests covers the others over
	// HTTP; its test server has no phenotype matrix to serve eqtl).
	err := decodeJob(httptest.NewRecorder(), io.NopCloser(strings.NewReader(`{"top": 1}`)), &eqtlRequest{})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("eqtl body with top: %v, want an unknown-field error", err)
	}
}

// FuzzJobRequestBodies drives decodeJob, the one decoder of a job request
// body, with arbitrary bytes for each of the four request types: it never
// panics, and a body it accepts re-encodes to one it accepts again, decoding
// to an equal request.
func FuzzJobRequestBodies(f *testing.F) {
	for _, body := range []string{
		`{"top": 3, "pool": "interactive", "timeout_ms": 250}`,
		`{"method": "mc", "iterations": 100}`,
		`{"method": "replicate", "replicate": 18446744073709551615}`,
		`{"page": 2, "page_size": 50}`,
		`{"TOP": 1, "Pool": "p"}`,
		`{"top": 1, "top": -1}`,
		`{"pool": "\ud800\xff"}`,
		`{"top": 1e2}`,
		`{"timeout_ms": 9223372036855}`,
		`{"jobFields": {}}`,
		`{} {}`,
		`null`,
		`[]`,
		``,
	} {
		for kind := range uint8(4) {
			f.Add(kind, body)
		}
	}
	newRequest := func(kind uint8) jobRequest {
		return [...]func() jobRequest{
			func() jobRequest { return &scoreRequest{} },
			func() jobRequest { return &skatRequest{} },
			func() jobRequest { return &resampleRequest{} },
			func() jobRequest { return &eqtlRequest{} },
		}[kind%4]()
	}
	f.Fuzz(func(t *testing.T, kind uint8, body string) {
		decode := func(body []byte) (jobRequest, error) {
			req := newRequest(kind)
			return req, decodeJob(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), req)
		}
		req, err := decode([]byte(body))
		if err != nil {
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%T from %q: %v", req, body, err)
		}
		back, err := decode(out)
		if err != nil {
			t.Fatalf("%T from %q re-encodes to %s, which decodeJob refuses: %v", req, body, out, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("%T from %q: %+v, re-encoded %s, decoded %+v", req, body, req, out, back)
		}
	})
}

func TestParsePools(t *testing.T) {
	pools, err := ParsePools(strings.NewReader(
		`[{"name":"interactive","weight":3,"minShare":8,"maxConcurrent":8},{"name":"batch"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 2 || pools[0].Weight != 3 || pools[0].MinShare != 8 {
		t.Fatalf("parsed %+v", pools)
	}
	if pools[1].maxConcurrent() != DefaultMaxConcurrent || pools[1].maxQueue() != DefaultMaxQueue {
		t.Fatal("defaults not applied")
	}
	if _, err := ParsePools(strings.NewReader(`[{"name":"a"},{"name":"a"}]`)); err == nil {
		t.Fatal("duplicate pool accepted")
	}
	if _, err := ParsePools(strings.NewReader(`[{"weight":1}]`)); err == nil {
		t.Fatal("empty pool name accepted")
	}
	if _, err := ParsePools(strings.NewReader(`[{"name":"a"}]garbage`)); err == nil {
		t.Fatal("data after the pool array accepted")
	}
}
