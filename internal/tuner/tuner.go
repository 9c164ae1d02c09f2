// Package tuner implements the paper's stated future work: "We plan to
// further investigate Apache Spark parameter options for SparkScore for the
// purpose of tuning." Its Experiment C varied the three container run-time
// flags (number of executors, memory per executor, cores per executor) by
// hand; this package searches that space automatically, scoring each
// candidate layout by the simulated runtime of a representative workload on
// the virtual cluster — cheap enough to sweep dozens of layouts before ever
// renting the real one.
package tuner

import (
	"fmt"
	"sort"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
)

// Candidate is one container layout (Table VIII's rows are candidates).
type Candidate struct {
	ExecutorsPerNode  int
	CoresPerExecutor  int
	MemPerExecutorGiB float64
}

// String renders the layout compactly.
func (c Candidate) String() string {
	return fmt.Sprintf("%d/node x %d cores x %g GiB", c.ExecutorsPerNode, c.CoresPerExecutor, c.MemPerExecutorGiB)
}

// Workload describes the job each candidate is scored on, on Nodes
// m3.2xlarge nodes (cluster.M3TwoXLarge, the spec the paper's cluster ran).
type Workload struct {
	Dataset    *data.Dataset
	Family     string // "" = cox
	Iterations int    // Monte Carlo iterations
	Nodes      int

	// DFSBlockSize and overhead overrides mirror rdd.Config (zero = engine
	// defaults); set them when tuning a scaled-down stand-in workload.
	DFSBlockSize     int
	SchedOverheadSec float64
	StageOverheadSec float64

	Seed uint64
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
	var out []Candidate
	usable := spec.MemGiB*0.9 - 2
	if usable <= 0 {
		return nil
	}
	for execs := 1; execs <= 4 && execs <= spec.VCPUs; execs++ {
		cores := spec.VCPUs / execs
		if cores < 1 {
			continue
		}
		mem := usable / float64(execs)
		out = append(out, Candidate{execs, cores, roundGiB(mem)})
		// The half-memory variant (more head-room for execution memory).
		out = append(out, Candidate{execs, cores, roundGiB(mem / 2)})
		// The untuned Spark 1.x default.
		if mem >= 1 {
			out = append(out, Candidate{execs, cores, 1})
		}
	}
	return dedupe(out)
}

func roundGiB(v float64) float64 {
	return float64(int(v*4+0.5)) / 4 // quarter-GiB granularity
}

func dedupe(cands []Candidate) []Candidate {
	seen := map[Candidate]bool{}
	var out []Candidate
	for _, c := range cands {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Tune scores every candidate on the simulator and returns the evaluations
// sorted best-first (failed candidates last, in input order).
func Tune(w Workload, candidates []Candidate) ([]Evaluation, error) {
	if w.Dataset == nil {
		return nil, fmt.Errorf("tuner: nil dataset")
	}
	if err := w.Dataset.Validate(); err != nil {
		return nil, err
	}
	if w.Nodes <= 0 {
		return nil, fmt.Errorf("tuner: %d nodes", w.Nodes)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("tuner: no candidates")
	}
	evals := make([]Evaluation, len(candidates))
	for i, cand := range candidates {
		evals[i] = Evaluation{Candidate: cand}
		evals[i].SimSeconds, evals[i].Err = w.run(cand)
	}
	sort.SliceStable(evals, func(a, b int) bool {
		ea, eb := evals[a], evals[b]
		if (ea.Err == nil) != (eb.Err == nil) {
			return ea.Err == nil
		}
		if ea.Err != nil {
			return false
		}
		return ea.SimSeconds < eb.SimSeconds
	})
	return evals, nil
}

// run measures one candidate.
func (w Workload) run(cand Candidate) (float64, error) {
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes:             w.Nodes,
			Spec:              cluster.M3TwoXLarge,
			ExecutorsPerNode:  cand.ExecutorsPerNode,
			CoresPerExecutor:  cand.CoresPerExecutor,
			MemPerExecutorGiB: cand.MemPerExecutorGiB,
		},
		DFSBlockSize:     w.DFSBlockSize,
		SchedOverheadSec: w.SchedOverheadSec,
		StageOverheadSec: w.StageOverheadSec,
		Seed:             w.Seed,
	})
	if err != nil {
		return 0, err
	}
	paths, err := core.StageDataset(ctx, w.Dataset, "tune")
	if err != nil {
		return 0, err
	}
	a, err := core.NewAnalysis(ctx, paths, core.Options{Family: w.Family, Seed: w.Seed})
	if err != nil {
		return 0, err
	}
	ctx.ResetClock()
	if _, err := a.MonteCarlo(w.Iterations); err != nil {
		return 0, err
	}
	return ctx.VirtualTime(), nil
}
