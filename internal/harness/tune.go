// The layout search the paper names as future work: "We plan to further
// investigate Apache Spark parameter options for SparkScore for the purpose
// of tuning." Experiment C varied the three container run-time flags (number
// of executors, memory per executor, cores per executor) by hand; Tune
// searches that space, scoring each layout by one measured run — cheap
// enough to sweep dozens of layouts before ever renting the real cluster.

package harness

import (
	"fmt"
	"sort"

	"sparkscore/internal/cluster"
)

// Candidate is one container layout (Table VIII's rows are candidates).
type Candidate struct {
	ExecutorsPerNode  int
	CoresPerExecutor  int
	MemPerExecutorGiB float64 // full-scale; divided by Scale like Params'
}

// String renders the layout compactly.
func (c Candidate) String() string {
	return fmt.Sprintf("%d/node x %d cores x %g GiB", c.ExecutorsPerNode, c.CoresPerExecutor, c.MemPerExecutorGiB)
}

// Evaluation is one scored candidate. Err is non-nil when the layout is
// infeasible (YARN admission) or the run failed; such candidates sort last.
type Evaluation struct {
	Candidate  Candidate
	SimSeconds float64
	Err        error
}

// Grid enumerates sensible container layouts for the node spec: 1–4
// executors per node, cores dividing the vCPUs, and memory splitting the
// node allocation (with 10% and a fixed 2 GiB reserved for the OS and node
// manager), plus the Spark 1.x default of 1 GiB per executor.
func Grid(spec cluster.NodeSpec) []Candidate {
	usable := spec.MemGiB*0.9 - 2
	if usable <= 0 {
		return nil
	}
	roundGiB := func(v float64) float64 { return float64(int(v*4+0.5)) / 4 } // quarter-GiB granularity
	var out []Candidate
	seen := map[Candidate]bool{}
	add := func(c Candidate) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for execs := 1; execs <= 4 && execs <= spec.VCPUs; execs++ {
		cores := spec.VCPUs / execs
		mem := usable / float64(execs)
		add(Candidate{execs, cores, roundGiB(mem)})
		// The half-memory variant (more head-room for execution memory).
		add(Candidate{execs, cores, roundGiB(mem / 2)})
		// The untuned Spark 1.x default.
		if mem >= 1 {
			add(Candidate{execs, cores, 1})
		}
	}
	return out
}

// Tune scores every candidate by Measure on p with the candidate's executors,
// cores and memory swapped in, and returns the evaluations sorted best-first
// (failed candidates last, in input order).
func (h *Harness) Tune(p Params, candidates []Candidate) ([]Evaluation, error) {
	if p.Nodes < 1 {
		return nil, fmt.Errorf("harness: tuning on %d nodes", p.Nodes)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("harness: no candidate layouts")
	}
	if _, err := h.dataset(p); err != nil {
		return nil, err
	}
	evals := make([]Evaluation, len(candidates))
	for i, c := range candidates {
		q := p
		q.ExecutorsPerNode, q.CoresPerExecutor, q.MemPerExecutorGiB = c.ExecutorsPerNode, c.CoresPerExecutor, c.MemPerExecutorGiB
		evals[i] = Evaluation{Candidate: c}
		evals[i].SimSeconds, evals[i].Err = h.Measure(q)
	}
	sort.SliceStable(evals, func(a, b int) bool {
		ea, eb := evals[a], evals[b]
		if (ea.Err == nil) != (eb.Err == nil) {
			return ea.Err == nil
		}
		return ea.Err == nil && ea.SimSeconds < eb.SimSeconds
	})
	return evals, nil
}
