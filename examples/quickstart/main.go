// Quickstart: the smallest end-to-end SparkScore run.
//
// It generates a synthetic GWAS dataset (Section III of the paper), stages
// it on the simulated HDFS, computes observed SKAT statistics, estimates
// their sampling distribution with 1000 Monte Carlo resamplings (Lin 2005),
// and prints the most significant SNP-sets together with the simulated
// cluster runtime.
//
//	go run ./examples/quickstart
//
// A run's timeline is drawn from its event log: `make trace` records one with
// sparkscore -events and renders it with sparkui -trace.
package main

import (
	"fmt"
	"log"
	"sort"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
)

func main() {
	// 1. A driver context over a simulated 6-node EMR cluster.
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{Nodes: 6, Spec: cluster.M3TwoXLarge},
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Synthetic inputs: 500 patients, 2000 SNPs in 50 gene-level sets.
	ds, err := gen.Generate(gen.Config{Patients: 500, SNPs: 2000, SNPSets: 50}, 42)
	if err != nil {
		log.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, ds, "quickstart")
	if err != nil {
		log.Fatal(err)
	}

	// 3. A Cox-score analysis with Monte Carlo resampling.
	analysis, err := core.NewAnalysis(ctx, paths, core.Options{Family: "cox", Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	result, err := analysis.MonteCarlo(1000)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report.
	order := make([]int, len(result.Observed))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return result.PValues[order[a]] < result.PValues[order[b]] })
	fmt.Printf("quickstart: %d SNP-sets, %d Monte Carlo iterations\n\n", len(result.Observed), result.Iterations)
	fmt.Printf("%-10s %14s %10s\n", "snp-set", "observed-skat", "p-value")
	for _, k := range order[:5] {
		fmt.Printf("%-10s %14.2f %10.4f\n", result.Sets[k].Name, result.Observed[k], result.PValues[k])
	}
	fmt.Printf("\nsimulated 6-node cluster time: %.1f s\n", ctx.VirtualTime())
}
