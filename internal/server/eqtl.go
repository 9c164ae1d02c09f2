// The /v1/eqtl endpoint: the all-pairs eQTL/PheWAS engine behind the job
// server. One full cross is expensive relative to a page of its top-K, so the
// server memoises the complete assoc.Result and serves every page out of it,
// revalidating against the storage epoch exactly like the result cache; the
// generic cache then holds each page's JSON under its own fingerprint, so
// repeated fetches of a page skip even the memo lookup.

package server

import (
	"fmt"

	"sparkscore/internal/assoc"
	"sparkscore/internal/core"
)

// DefaultEQTLPageSize is the /v1/eqtl page size when page_size is omitted.
const DefaultEQTLPageSize = 100

type eqtlRequest struct {
	jobFields
	Page     int `json:"page,omitempty"`
	PageSize int `json:"page_size,omitempty"`

	// srv reaches the server's assoc analysis and result memo; the shared
	// jobRequest plumbing only hands run the core analysis.
	srv *Server
}

func (r *eqtlRequest) validate() error {
	if r.Page < 0 {
		return fmt.Errorf("page must be >= 0")
	}
	if r.PageSize < 0 {
		return fmt.Errorf("page_size must be >= 0")
	}
	return nil
}

func (r *eqtlRequest) pageSize() int {
	if r.PageSize == 0 {
		return DefaultEQTLPageSize
	}
	return r.PageSize
}

func (r *eqtlRequest) fingerprintParts(endpoint string) []string {
	return []string{endpoint, fmt.Sprintf("page=%d size=%d", r.Page, r.pageSize())}
}

// EQTLPair is one (SNP, phenotype) association in an eqtl response page.
type EQTLPair struct {
	SNP      int32   `json:"snp"`
	Pheno    int32   `json:"pheno"`
	Score    float64 `json:"score"`
	Variance float64 `json:"variance"`
	PValue   float64 `json:"pValue"`
}

// EQTLFDR is the Benjamini–Hochberg summary in an eqtl response.
type EQTLFDR struct {
	Alpha       float64 `json:"alpha"`
	Bins        int     `json:"bins"`
	Threshold   float64 `json:"threshold"`
	Discoveries int64   `json:"discoveries"`
}

func (r *eqtlRequest) run(_ *core.Analysis) (any, error) {
	res, err := r.srv.eqtlResult()
	if err != nil {
		return nil, err
	}
	size := r.pageSize()
	// page and page_size come off the wire, so nothing here may overflow:
	// the page count is a division, and page is compared against it before
	// it is multiplied. A page past the end is an empty page.
	pages := len(res.TopK) / size
	if len(res.TopK)%size != 0 || pages == 0 {
		pages++
	}
	lo, hi := len(res.TopK), len(res.TopK)
	if r.Page < pages {
		lo = r.Page * size
		hi = min(lo+size, len(res.TopK))
	}
	pairs := make([]EQTLPair, 0, hi-lo)
	for _, p := range res.TopK[lo:hi] {
		pairs = append(pairs, EQTLPair{SNP: p.SNP, Pheno: p.Pheno, Score: p.Score, Variance: p.Variance, PValue: p.PValue})
	}
	return map[string]any{
		"tested":     res.Tested,
		"phenotypes": res.Phenos,
		"snpBlocks":  res.SNPBlocks,
		"topK":       len(res.TopK),
		"fdr": EQTLFDR{
			Alpha: res.FDR.Alpha, Bins: res.FDR.Bins,
			Threshold: res.FDR.Threshold, Discoveries: res.FDR.Discoveries,
		},
		"page":     r.Page,
		"pageSize": size,
		"pages":    pages,
		"pairs":    pairs,
	}, nil
}

// eqtlResult returns the memoised all-pairs result, re-running the cross when
// there is none or when a storage-epoch bump (injected node loss) may have
// taken its backing blocks. The mutex also serialises concurrent eqtl
// requests so the cross runs once, not once per in-flight page.
func (s *Server) eqtlResult() (*assoc.Result, error) {
	s.eqtlMu.Lock()
	defer s.eqtlMu.Unlock()
	if s.eqtlRes != nil && s.eqtlEpoch == s.ctx.StorageEpoch() {
		return s.eqtlRes, nil
	}
	s.eqtlRes = nil
	res, err := s.eqtl.Run()
	if err != nil {
		return nil, err
	}
	// Stamp with the epoch after the run, as the result cache does: the blocks
	// the result rests on were live at completion.
	s.eqtlRes, s.eqtlEpoch = res, s.ctx.StorageEpoch()
	return res, nil
}
