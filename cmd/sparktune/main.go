// Command sparktune searches the YARN container parameter space (executors
// per node × cores × memory — the run-time flags of the paper's auto-tuning
// investigation) for the layout that minimises the simulated runtime of a
// representative SparkScore workload:
//
//	sparktune -patients 1000 -snps 1000000 -sets 1000 -nodes 6 -iterations 100 -scale 100
//
// Candidates are scored on the discrete-event cluster model, each by one
// measured run of the harness behind benchtab, so the sweep costs seconds
// instead of cluster-hours.
package main

import (
	"flag"
	"fmt"
	"os"

	"sparkscore/internal/cluster"
	"sparkscore/internal/harness"
	"sparkscore/internal/metrics"
)

func main() {
	var (
		patients   = flag.Int("patients", 1000, "patients in the representative workload")
		snps       = flag.Int("snps", 10000, "SNPs in the representative workload (full-scale; divided by -scale)")
		sets       = flag.Int("sets", 100, "SNP-sets in the representative workload (full-scale; divided by -scale)")
		nodes      = flag.Int("nodes", 6, "cluster nodes (m3.2xlarge)")
		iterations = flag.Int("iterations", 100, "Monte Carlo iterations in the scored job")
		family     = flag.String("family", "cox", "score family")
		scale      = flag.Int("scale", 1, "run a scaled stand-in, as benchtab -scale does: divide SNP and SNP-set counts, block size, scheduling overheads and executor memory by this")
		seed       = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()
	if *scale < 1 || *nodes < 1 || *iterations < 0 {
		fmt.Fprintf(os.Stderr, "sparktune: -scale and -nodes must be at least 1 and -iterations non-negative (got %d, %d, %d)\n", *scale, *nodes, *iterations)
		os.Exit(2)
	}

	h := &harness.Harness{Scale: *scale, Seed: *seed}
	p := harness.Params{
		Patients: *patients, SNPs: *snps, SNPSets: *sets, Nodes: *nodes,
		Method: "mc", Family: *family, Cache: true, Iterations: *iterations,
	}
	candidates := harness.Grid(cluster.M3TwoXLarge)
	fmt.Printf("sparktune: scoring %d container layouts on %d nodes (%d SNPs x %d patients, %d iterations)\n\n",
		len(candidates), *nodes, *snps, *patients, *iterations)

	evals, err := h.Tune(p, candidates)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparktune:", err)
		os.Exit(1)
	}
	t := metrics.NewTable("ranked container layouts", "rank", "layout", "sim-time (s)", "note")
	for i, e := range evals {
		note := ""
		if i == 0 {
			note = "<== best"
		}
		if e.Err != nil {
			t.AddRowf(i+1, e.Candidate.String(), "N/A", "infeasible: "+e.Err.Error())
			continue
		}
		t.AddRowf(i+1, e.Candidate.String(), e.SimSeconds, note)
	}
	t.Fprint(os.Stdout)
}
