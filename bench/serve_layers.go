// serve_mixed's traced side: request spans joined to the jobs they ran, the
// server.* layer from client-side timings and response envelopes, and the
// checks of served results against direct calls.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"sparkscore/internal/data"
)

// requestJobs returns the traced jobs a reply's request ran: those submitted
// to its client's pool while it was in flight. A client has one request in
// flight at a time, so the match is exact.
func requestJobs(r reply, jobs []*jobRec) []*jobRec {
	pool := fmt.Sprintf("client%d", r.client)
	var mine []*jobRec
	for _, j := range jobs {
		if j.pool == pool && j.start >= r.start && j.end <= r.end {
			mine = append(mine, j)
		}
	}
	return mine
}

// addRequestSpans records request → (queue) → job → stage → task spans for one
// traced segment and returns the segment's driver gap: the time its
// job-running requests spent outside any job (HTTP, JSON, admission, cache,
// the pipeline's driver-side code).
func addRequestSpans(tr *tracer, seg segmentSample) (gapSec float64) {
	for _, r := range seg.replies {
		if !r.ok {
			continue
		}
		id := tr.add(span{TraceID: r.env.Request, Layer: "server", Name: r.req.path, StartNs: r.start, EndNs: r.end, lane: r.client})
		if q := int64(r.env.QueueSeconds * 1e9); q > 0 {
			tr.add(span{TraceID: r.env.Request, Parent: id, Layer: "server", Name: "queue", StartNs: r.start, EndNs: r.start + q, lane: r.client})
		}
		jobs := requestJobs(r, seg.traced)
		layer := "core"
		if r.req.path == "/v1/eqtl" {
			layer = "assoc"
		}
		tr.addJobs(r.env.Request, id, r.client, layer, jobs)
		if len(jobs) > 0 {
			gapSec += float64(r.end-r.start)/1e9 - sumJobs(jobs).jobWall
		}
	}
	return gapSec
}

// serveLayerMetrics fills every per-layer metric serve_mixed reports.
func serveLayerMetrics(e suiteEnv, s *serveEnv, tr *tracer, first []reply, plain, traced []segmentSample) error {
	m, in := e.m, e.in
	m["gen.generate_s"] = in.generateSec
	m["data.encode_text_s"] = in.encodeSec
	m["dfs.stage_s"] = s.stageSec
	m["dfs.stage_mb_per_s"] = float64(in.bytes()) / 1e6 / s.stageSec
	var err error
	m["data.phenomatrix_read_s"] = medianOf(3, func() {
		_, err = data.ReadPhenoMatrix(bytes.NewReader(in.expr))
	})
	if err != nil {
		return err
	}

	// first holds the replies to the cacheable requests in warm-up order: the
	// four score/SKAT requests, then the eQTL pages (page 0 was already run,
	// and cached, by set-up; page 1 is sliced out of the memoised cross).
	m["server.score_miss_ms"] = first[0].ms()
	m["server.skat_miss_ms"] = first[2].ms()
	m["server.eqtl_first_page_ms"] = s.firstPageMs
	m["server.eqtl_next_page_ms"] = first[len(cacheable)+1].ms()

	const healthChecks = 200
	us := make([]float64, healthChecks)
	for i := range us {
		us[i] = 1e6 * timed(func() {
			resp, herr := s.client.Get(s.base + "/healthz")
			if herr != nil {
				err = herr
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			resp.Body.Close()
		})
	}
	if err != nil {
		return err
	}
	m["server.healthz_us_p50"] = median(us)

	// Engine time and counts per traced segment.
	units := make([]tracedUnit, len(traced))
	var tracedRates, plainRates []float64
	for i, seg := range traced {
		units[i] = tracedUnit{jobTimes: sumJobs(seg.traced), gapSec: addRequestSpans(tr, seg), simSec: seg.simSec}
		tracedRates = append(tracedRates, float64(len(seg.replies))/seg.wallSec)
	}
	for _, seg := range plain {
		plainRates = append(plainRates, float64(len(seg.replies))/seg.wallSec)
	}
	taskCompute := engineTimeMetrics(m, units, tr.workers).taskCompute
	engineCounts(m, traced[0].jobs)
	m["trace_overhead_share"] = 1 - median(tracedRates)/median(plainRates)

	// The server layer, from the client side of every timed request.
	var all []reply
	for _, seg := range append(append([]segmentSample(nil), plain...), traced...) {
		all = append(all, seg.replies...)
	}
	hits, failed := 0, 0
	var sizes []float64
	for _, r := range all {
		if !r.ok {
			failed++
			continue
		}
		if r.env.Cached {
			hits++
		}
		sizes = append(sizes, float64(r.bytes))
	}
	ms := latencies(all, nil)
	m["server.failed"] = float64(failed)
	m["server.cache_hit_share"] = float64(hits) / float64(len(all))
	m["server.hit_latency_p50_ms"] = median(latencies(all, func(r reply) bool { return r.ok && r.env.Cached }))
	m["server.miss_latency_p50_ms"] = median(latencies(all, func(r reply) bool { return r.ok && !r.env.Cached }))
	m["server.latency_p95_ms"] = percentile(ms, 0.95)
	m["server.latency_p99_ms"] = percentile(ms, 0.99)
	m["server.response_bytes_p50"] = median(sizes)
	fmt.Fprintf(e.log, "server.* latencies are over %d timed requests: %d beyond p95, %d beyond p99 (the tail is reported, not gated)\n",
		len(ms), len(ms)/20, len(ms)/100)

	var stats struct {
		Requests    float64 `json:"requests"`
		Rejected429 float64 `json:"rejected429"`
		TimedOut408 float64 `json:"timedOut408"`
	}
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/stats: status %d, %v", resp.StatusCode, err)
	}
	m["server.requests"] = stats.Requests
	m["server.rejected_429"] = stats.Rejected429
	m["server.timed_out_408"] = stats.TimedOut408

	// Layer replays on the staged input. A served replicate sweeps U once and
	// never touches the text, so only the mat-vec is apportioned.
	blocks, err := scanSuite(e)
	if err != nil {
		return err
	}
	replicates := 0
	for _, r := range traced[0].replies {
		if r.req.replicate > 0 {
			replicates++
		}
	}
	if err := coreSuite(e, blocks, coreWork{scorePasses: replicates, taskCompute: taskCompute}); err != nil {
		return err
	}
	m["server.overhead_ms_p50"] = m["server.miss_latency_p50_ms"] - m["core.replicate_ms_p50"]
	return nil
}

// verifyServe checks served results against direct calls on the same
// analyses, after the load has stopped.
func verifyServe(rep *runReport, s *serveEnv, first, timedReplies []reply) {
	var hitErr error
	for _, r := range timedReplies {
		if r.ok && r.req.replicate == 0 && !r.env.Cached {
			hitErr = fmt.Errorf("%s {%s} missed the result cache after warm-up", r.req.path, r.req.body)
			break
		}
	}
	rep.addCheck("score, SKAT and eQTL-page requests hit the result cache after warm-up", hitErr)

	// Replicate responses, sampled evenly over the timed phase.
	var sampled []reply
	for _, r := range timedReplies {
		if r.ok && r.req.replicate > 0 {
			sampled = append(sampled, r)
		}
	}
	stride := max(1, (len(sampled)+replicateChecks-1)/replicateChecks)
	var repErr error
	checked := 0
	for i := 0; i < len(sampled) && repErr == nil; i += stride {
		repErr = checkReplicate(s, sampled[i])
		checked++
	}
	rep.addCheck(fmt.Sprintf("%d sampled replicate responses are bit-equal to Analysis.Replicate", checked), repErr)
	rep.addCheck("eQTL pages reassemble to the batch Run() top-K", checkPages(s, first[len(cacheable):]))
}

func checkReplicate(s *serveEnv, r reply) error {
	var got struct {
		Replicate  uint64    `json:"replicate"`
		Statistics []float64 `json:"statistics"`
	}
	if err := json.Unmarshal(r.env.Result, &got); err != nil {
		return err
	}
	want, err := s.analysis.Replicate(r.req.replicate)
	if err != nil {
		return err
	}
	if got.Replicate != r.req.replicate || len(got.Statistics) != len(want) {
		return fmt.Errorf("replicate %d: served replicate %d with %d statistics, want %d", r.req.replicate, got.Replicate, len(got.Statistics), len(want))
	}
	for k := range want {
		if got.Statistics[k] != want[k] {
			return fmt.Errorf("replicate %d set %d: served %v, direct %v", r.req.replicate, k, got.Statistics[k], want[k])
		}
	}
	return nil
}

func checkPages(s *serveEnv, pages []reply) error {
	want, err := s.eqtl.Run()
	if err != nil {
		return err
	}
	var got []pair
	for _, r := range pages {
		var page struct {
			Tested int64 `json:"tested"`
			Pairs  []struct {
				SNP    int32   `json:"snp"`
				Pheno  int32   `json:"pheno"`
				PValue float64 `json:"pValue"`
			} `json:"pairs"`
		}
		if err := json.Unmarshal(r.env.Result, &page); err != nil {
			return err
		}
		if page.Tested != want.Tested {
			return fmt.Errorf("page reports %d tests, batch %d", page.Tested, want.Tested)
		}
		for _, p := range page.Pairs {
			i := len(got)
			if i >= len(want.TopK) || want.TopK[i].SNP != p.SNP || want.TopK[i].Pheno != p.Pheno || want.TopK[i].PValue != p.PValue {
				return fmt.Errorf("served pair %d is (SNP %d, phenotype %d, p %g), not the batch top-K's", i, p.SNP, p.Pheno, p.PValue)
			}
			got = append(got, pair{p.SNP, p.Pheno})
		}
	}
	if len(got) != len(want.TopK) {
		return fmt.Errorf("pages hold %d pairs, batch top-K %d", len(got), len(want.TopK))
	}
	return nil
}
