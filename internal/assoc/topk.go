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
//   - Pairs below both cut-offs are counted, not scored. BH can set its
//     threshold only at a bin whose upper edge is ≤ α, and a full heap admits
//     no pair less significant than its root; both edges are monotone in
//     χ² = s²/v, so a pair whose χ² is strictly below both (each lowered by
//     cutMargin) only adds to Tested. Bins past α are never incremented. A
//     partial is then the exact path's partial with those bins zeroed, and
//     they cannot change bhFromHist: the BH threshold comes out the same.
//   - Pairs between the cut-offs are binned by χ², not by p. A pair at or
//     above the BH cut-off but strictly below the heap's cannot enter the
//     top-K and needs only its bin; the bins' edges, bracketed in χ² once per
//     run (bhEdge), give it by search, so erfc runs only for a top-K
//     candidate, a NaN χ², or a χ² within cutMargin of an edge. The count is
//     the p-value's bin's, so the partial is unchanged.

package assoc

import (
	"container/heap"
	"math"
	"sort"

	"sparkscore/internal/stats"
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

// add offers p to the heap and reports whether it was kept.
func (t *topK) add(p PairResult) bool {
	if t.k <= 0 {
		return false
	}
	if len(t.h) < t.k {
		heap.Push(&t.h, p)
		return true
	}
	if pairLess(p, t.h[0]) {
		t.h[0] = p
		heap.Fix(&t.h, 0)
		return true
	}
	return false
}

// cut is the heap's χ² cut-off: a pair whose χ² is strictly below it cannot
// enter. With K ≤ 0 no pair can; until the heap is full, every pair can. It
// reads the root's p-value as its χ²'s, which holds for every pair
// pairResult builds.
func (t *topK) cut() float64 {
	switch {
	case t.k <= 0:
		return math.Inf(1)
	case len(t.h) < t.k:
		return 0
	}
	root := t.h[0]
	return cutBelow(stats.Chi2Stat(root.Score, root.Variance), root.PValue)
}

// sorted returns the kept pairs in ascending pairLess order.
func (t *topK) sorted() []PairResult {
	out := append([]PairResult(nil), t.h...)
	sort.Slice(out, func(i, j int) bool { return pairLess(out[i], out[j]) })
	return out
}

// histBin is p's fixed-width bin among w over [0,1]: bin b covers
// (b/W, (b+1)/W], with p = 0 landing in bin 0.
func histBin(p float64, w int) int {
	idx := int(p * float64(w))
	if idx >= w {
		idx = w - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
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

// cutMargin is how far, relatively, a cut-off sits below the χ² of the edge
// it guards. Where the report's edges lie (p ≈ α, or a top-K root well inside
// the normal range) it moves p by ~1e-6 relative, against erfc's error of a
// few ulps (~1e-16), so float rounding cannot carry a pair below the cut-off
// across the edge.
const cutMargin = 1e-6

// cutBelow turns an edge into a cut-off. x is a χ² whose p-value is p; the
// result is x lowered by cutMargin, checked to leave every χ² strictly below
// it a computed p-value above p·(1 + 1e-9): strictly above p, and still past
// the edge once multiplied by the sketch width. Where erfc is too flat for
// the margin to move p that far (χ² near 0), where p is not comfortably
// normal (near erfc's underflow, where pairs tied at p = 0 order by SNP and
// phenotype), and for a NaN edge, it returns 0, which no χ² is below.
func cutBelow(x, p float64) float64 {
	c := x * (1 - cutMargin)
	if !(p >= 1e-300) || !(stats.ChiSquaredSurvival(c, 1) > p*(1+1e-9)) {
		return 0
	}
	return c
}

// bhEdge is the run's BH cut-off and its χ² bin edges, computed once from
// the sketch width: BH can set its threshold only at a bin b with
// u_b = (b+1)/W ≤ α·C_b/m ≤ α, so only the bins below keep count, and a pair
// whose χ² is below cut lands past them.
//
// Edge i < keep is the χ² at which a p-value leaves bin i for bin i+1. hi[i]
// and lo[i] bracket it: every χ² above hi[i] has its p-value in a bin ≤ i,
// every χ² below lo[i] in a bin ≥ i+1 — each checked, as cutBelow checks its
// cut-off, to move p past the edge by a relative 1e-9, against erfc's few
// ulps. The brackets are derived from the bins' p-value edges alone, so
// other bin shapes change only the p-values the brackets are built around.
type bhEdge struct {
	bins   int       // the sketch width W
	keep   int       // bins [0, keep) have u_b ≤ α, in bhFromHist's expression
	cut    float64   // a χ² strictly below cut has a p-value in bin ≥ keep
	lo, hi []float64 // the edges' brackets; empty when some edge has none
}

func newBHEdge(bins int, alpha float64) bhEdge {
	e := bhEdge{bins: bins}
	w := float64(bins)
	for e.keep < bins && float64(e.keep+1)/w <= alpha {
		e.keep++
	}
	if e.keep == 0 {
		e.cut = math.Inf(1) // no bin can set the threshold: none counts
		return e
	}
	// The lower edge of the first bin past α, at which p·W reaches keep.
	q := float64(e.keep) / w
	below, _ := bisectChi2(func(p float64) bool { return p >= q })
	e.cut = cutBelow(below, q)

	// Edge i is where p·W crosses i+1, at χ² = 2·erfcinv((i+1)/W)². The
	// estimate need only fall well inside the margin, which the checks
	// confirm: p·W at lo[i] clears i+1 by a relative 1e-9, and at hi[i] falls
	// short of it by as much.
	e.lo, e.hi = make([]float64, e.keep), make([]float64, e.keep)
	for i := range e.keep {
		edge := float64(i + 1)
		z := math.Erfcinv(edge / w)
		e.lo[i], e.hi[i] = 2*z*z*(1-cutMargin), 2*z*z*(1+cutMargin)
		if !(stats.ChiSquaredSurvival(e.lo[i], 1)*w > edge*(1+1e-9)) ||
			!(stats.ChiSquaredSurvival(e.hi[i], 1)*w < edge*(1-1e-9)) {
			e.lo, e.hi = nil, nil // every pair at or above cut takes the exact path
			break
		}
	}
	return e
}

// bisectChi2 bisects [0, 2048] for where in(p) stops holding, p a χ²'s
// p-value: in must hold at p = 1 (χ² = 0) and fail at p = 0, which erfc
// reaches by χ² = 2048. It returns the last χ² tried at which in holds and
// the first above it at which it does not, adjacent floats when the bisection
// runs to the end.
func bisectChi2(in func(p float64) bool) (below, above float64) {
	below, above = 0, 2048
	for range 200 {
		mid := (below + above) / 2
		if mid == below || mid == above {
			break
		}
		if in(stats.ChiSquaredSurvival(mid, 1)) {
			below = mid
		} else {
			above = mid
		}
	}
	return below, above
}

// chiBin is the histogram bin of a χ² by search over the edges' brackets
// alone: bin b when x lies above hi[b] and below lo[b−1], which settles the
// p-value's bin whether or not the brackets are in order. ok is false — the
// bin needs the p-value — for a χ² within a bracket, below the last kept
// edge's, or NaN. The search runs a fixed number of steps without a branch
// on the data, since a null stream's bins are uniform and such a branch would
// mispredict about every other step. Each step compares bit patterns, which
// order the non-negative floats as their values: the sign of hi's bits minus
// x's is a mask that takes the step when x ≤ hi. Both patterns are below
// 2⁶³ for a non-negative x, so the difference cannot overflow; any other x
// it may misplace only fails the float checks at the end.
func (e *bhEdge) chiBin(x float64) (b int, ok bool) {
	hi := e.hi
	if len(hi) == 0 {
		return 0, false
	}
	xb := math.Float64bits(x)
	above := func(i int) int { return int(int64(math.Float64bits(hi[i])-xb) >> 63) } // −1 when x > hi[i]
	for n := len(hi); n > 1; {
		half := n >> 1
		b += half &^ above(b+half)
		n -= half
	}
	b += 1 + above(b)
	return b, b < len(hi) && x > hi[b] && (b == 0 || x < e.lo[b-1])
}

// accumulator builds a partial from the kernel's rows. A pair whose χ² is
// strictly below cut = min(BH cut-off, heap cut-off) is counted only. A pair
// at or above it but strictly below the heap cut-off cannot enter the top-K:
// it takes its bin from the χ² edges (chiBin) where the search settles it.
// Every other pair — NaN χ² included, since NaN < cut is false — takes the
// exact path: its p-value, its histogram bin if kept, and the heap.
type accumulator struct {
	tested  int64
	scored  int64 // pairs that took the exact path
	top     *topK
	hist    []int64
	edge    bhEdge
	cut     float64
	heapCut float64 // top.cut()
}

func newAccumulator(k int, edge bhEdge) *accumulator {
	a := &accumulator{top: newTopK(k), hist: make([]int64, edge.bins), edge: edge}
	a.heapCut = a.top.cut()
	a.cut = min(edge.cut, a.heapCut)
	return a
}

// addRow accounts one kernel row: the pairs (snp, phenos[p]) with scores[p]
// and variances[p].
func (a *accumulator) addRow(snp int32, phenos []int32, scores, variances []float64) {
	a.tested += int64(len(scores))
	variances = variances[:len(scores)]
	for p, s := range scores {
		x := stats.Chi2Stat(s, variances[p])
		if x < a.cut {
			continue
		}
		if x < a.heapCut {
			if b, ok := a.edge.chiBin(x); ok {
				a.hist[b]++
				continue
			}
		}
		a.score(pairResult(snp, phenos[p], s, variances[p]))
	}
}

// score is the exact path for one pair.
func (a *accumulator) score(p PairResult) {
	a.scored++
	if b := histBin(p.PValue, len(a.hist)); b < a.edge.keep {
		a.hist[b]++
	}
	if a.top.add(p) {
		a.heapCut = a.top.cut()
		a.cut = min(a.edge.cut, a.heapCut)
	}
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
