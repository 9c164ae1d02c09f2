// Streaming actions of the all-pairs engine: per-partition top-K heaps and a
// fixed-width p-value histogram sketch, merged deterministically at the
// driver. Billions of (SNP, phenotype) tests flow through tasks, but what
// crosses to the driver per partition is one bounded partial — K pairs plus
// the bin counts — so result size is independent of the number of tests.
//
// Merge rules (pinned by golden tests):
//
//   - Pairs are totally ordered by (PValue, SNP, Pheno) ascending; (SNP,
//     Pheno) is unique per test, so the order has no ties and the global
//     top-K is a deterministic set regardless of partition scheduling.
//   - Partials merge by summing Tested and the histogram bins (both exactly
//     associative in int64) and re-selecting the K smallest pairs from the
//     concatenated partial tops — which equals the top-K of the full stream,
//     since any globally-top pair is necessarily in its partition's top-K.
//   - The Benjamini–Hochberg threshold comes from the sketch: with W bins
//     over [0,1] and C_b the cumulative count through bin b, the threshold is
//     the largest upper edge u_b = (b+1)/W with u_b ≤ α·C_b/m. This is
//     exactly BH run on the p-values rounded up to their bin's upper edge, so
//     the sketch is conservative: its discovery set is a subset of exact BH's,
//     and any p-value it admits exceeds the exact threshold by < 1/W.

package assoc

import (
	"container/heap"
	"sort"
)

// PairResult is one scored (SNP, phenotype) association.
type PairResult struct {
	SNP      int32
	Pheno    int32
	Score    float64
	Variance float64
	PValue   float64
}

// pairLess is the total order of the engine: most significant first, ties
// broken by SNP then phenotype id (unique per pair, so never equal).
func pairLess(a, b PairResult) bool {
	if a.PValue != b.PValue {
		return a.PValue < b.PValue
	}
	if a.SNP != b.SNP {
		return a.SNP < b.SNP
	}
	return a.Pheno < b.Pheno
}

// pairHeap is a max-heap under pairLess: the root is the worst pair kept, the
// one a better candidate evicts.
type pairHeap []PairResult

func (h pairHeap) Len() int           { return len(h) }
func (h pairHeap) Less(i, j int) bool { return pairLess(h[j], h[i]) }
func (h pairHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)        { *h = append(*h, x.(PairResult)) }
func (h *pairHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// topK keeps the K smallest pairs of a stream under pairLess.
type topK struct {
	k int
	h pairHeap
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) add(p PairResult) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		heap.Push(&t.h, p)
		return
	}
	if pairLess(p, t.h[0]) {
		t.h[0] = p
		heap.Fix(&t.h, 0)
	}
}

// sorted returns the kept pairs in ascending pairLess order.
func (t *topK) sorted() []PairResult {
	out := append([]PairResult(nil), t.h...)
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

// histAdd counts p into its fixed-width bin over [0,1]: bin b covers
// (b/W, (b+1)/W], with p = 0 landing in bin 0.
func histAdd(h []int64, p float64) {
	idx := int(p * float64(len(h)))
	if idx >= len(h) {
		idx = len(h) - 1
	}
	if idx < 0 {
		idx = 0
	}
	h[idx]++
}

// FDR is the Benjamini–Hochberg summary computed from the histogram sketch.
type FDR struct {
	// Alpha is the target false-discovery rate.
	Alpha float64
	// Bins is the sketch width W.
	Bins int
	// Threshold is the BH p-value cutoff as a bin upper edge — declare pairs
	// with PValue ≤ Threshold significant. Zero when nothing passes.
	Threshold float64
	// Discoveries is the number of tests at or below Threshold.
	Discoveries int64
}

// bhFromHist runs BH over the sketch: the largest non-empty bin's upper edge
// u_b with u_b ≤ alpha·C_b/tested, C_b the cumulative count through bin b.
// Only bins with mass can set the threshold — their upper edge is the largest
// snapped p-value in the bin, which makes the sketch exactly BH run on the
// snapped p-values (an empty bin's edge corresponds to no test).
func bhFromHist(h []int64, tested int64, alpha float64) FDR {
	out := FDR{Alpha: alpha, Bins: len(h)}
	if tested <= 0 {
		return out
	}
	var cum int64
	w := float64(len(h))
	for b, n := range h {
		cum += n
		if n == 0 {
			continue
		}
		u := float64(b+1) / w
		if u <= alpha*float64(cum)/float64(tested) {
			out.Threshold = u
			out.Discoveries = cum
		}
	}
	return out
}

// partial is what one partition sends to the driver: its test count, its
// sorted top-K, and its p-value histogram.
type partial struct {
	Tested int64
	Top    []PairResult
	Hist   []int64
}

// accumulator builds a partial from a stream of scored pairs.
type accumulator struct {
	tested int64
	top    *topK
	hist   []int64
}

func newAccumulator(k, bins int) *accumulator {
	return &accumulator{top: newTopK(k), hist: make([]int64, bins)}
}

func (a *accumulator) add(p PairResult) {
	a.tested++
	histAdd(a.hist, p.PValue)
	a.top.add(p)
}

func (a *accumulator) partial() partial {
	return partial{Tested: a.tested, Top: a.top.sorted(), Hist: a.hist}
}

// Result is the outcome of an all-pairs association run.
type Result struct {
	// Tested is the total number of (SNP, phenotype) pairs scored.
	Tested int64
	// TopK holds the K most significant pairs in ascending pairLess order.
	TopK []PairResult
	// FDR is the sketch-based Benjamini–Hochberg summary over all tests.
	FDR FDR
	// Phenos and SNPBlocks record the input shape for reporting.
	Phenos    int
	SNPBlocks int
}

// mergePartials combines per-partition partials (in partition order, though
// the merge is order-independent) into the final result.
func mergePartials(parts []partial, k, bins int) *Result {
	res := &Result{}
	hist := make([]int64, bins)
	merged := newTopK(k)
	for _, p := range parts {
		res.Tested += p.Tested
		for i, n := range p.Hist {
			hist[i] += n
		}
		for _, pr := range p.Top {
			merged.add(pr)
		}
	}
	res.TopK = merged.sorted()
	res.FDR = bhFromHist(hist, res.Tested, fdrAlpha)
	return res
}
