// Command sparktune searches the YARN container parameter space (executors
// per node × cores × memory — the run-time flags of the paper's auto-tuning
// investigation) for the layout that minimises the simulated runtime of a
// representative SparkScore workload:
//
//	sparktune -patients 1000 -snps 100000 -sets 1000 -nodes 6 -iterations 100
//
// Candidates are scored on the discrete-event cluster model, so the sweep
// costs seconds instead of cluster-hours.
package main

import (
	"flag"
	"fmt"
	"os"

	"sparkscore/internal/cluster"
	"sparkscore/internal/gen"
	"sparkscore/internal/metrics"
	"sparkscore/internal/tuner"
)

func main() {
	var (
		patients   = flag.Int("patients", 1000, "patients in the representative workload")
		snps       = flag.Int("snps", 10000, "SNPs in the representative workload")
		sets       = flag.Int("sets", 100, "SNP-sets in the representative workload")
		nodes      = flag.Int("nodes", 6, "cluster nodes (m3.2xlarge)")
		iterations = flag.Int("iterations", 100, "Monte Carlo iterations in the scored job")
		family     = flag.String("family", "cox", "score family")
		scale      = flag.Int("scale", 1, "divide block size and scheduling overheads by this when the workload is a scaled stand-in")
		seed       = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()
	if *scale < 1 || *iterations < 0 {
		fmt.Fprintf(os.Stderr, "sparktune: -scale must be at least 1 and -iterations non-negative (got %d, %d)\n", *scale, *iterations)
		os.Exit(2)
	}

	ds, err := gen.Generate(gen.Config{Patients: *patients, SNPs: *snps, SNPSets: *sets}, *seed)
	if err != nil {
		fatal(err)
	}
	w := tuner.Workload{
		Dataset:    ds,
		Family:     *family,
		Iterations: *iterations,
		Nodes:      *nodes,
		Seed:       *seed,
	}
	if *scale > 1 {
		s := float64(*scale)
		w.DFSBlockSize = int(float64(128<<20) / s)
		w.SchedOverheadSec = 0.004 / s
		w.StageOverheadSec = 0.05 / s
	}
	candidates := tuner.Grid(cluster.M3TwoXLarge)
	fmt.Printf("sparktune: scoring %d container layouts on %d nodes (%d SNPs x %d patients, %d iterations)\n\n",
		len(candidates), *nodes, *snps, *patients, *iterations)

	evals, err := tuner.Tune(w, candidates)
	if err != nil {
		fatal(err)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparktune:", err)
	os.Exit(1)
}
