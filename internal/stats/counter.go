// Resampling p-values: the paper's per-set exceedance counter.

package stats

import "fmt"

// Counter tallies, per SNP-set, how many resampling replicates met or
// exceeded the observed statistic — the paper's counter_k, incremented
// whenever S_k^b >= S_k^0.
type Counter struct {
	observed []float64
	exceed   []int
	b        int
}

// NewCounter starts a tally against the observed statistics S^0.
func NewCounter(observed []float64) *Counter {
	return &Counter{observed: observed, exceed: make([]int, len(observed))}
}

// Add registers one replicate's statistics S^b.
func (c *Counter) Add(replicate []float64) {
	if len(replicate) != len(c.observed) {
		panic(fmt.Sprintf("stats: replicate has %d sets, observed has %d", len(replicate), len(c.observed)))
	}
	for k, s := range replicate {
		if s >= c.observed[k] {
			c.exceed[k]++
		}
	}
	c.b++
}

// Replicates returns how many replicates have been tallied.
func (c *Counter) Replicates() int { return c.b }

// Exceedances returns the per-set exceedance counts.
func (c *Counter) Exceedances() []int { return c.exceed }

// PValues returns the resampling p-values. The paper defines the p-value as
// the proportion of resampling statistics ≥ the observed one; we use the
// standard bias-corrected estimator (count+1)/(B+1), which is never exactly
// zero and is the convention of Westfall & Young for resampling-based
// inference.
func (c *Counter) PValues() []float64 {
	p := make([]float64, len(c.exceed))
	for k, e := range c.exceed {
		p[k] = float64(e+1) / float64(c.b+1)
	}
	return p
}
