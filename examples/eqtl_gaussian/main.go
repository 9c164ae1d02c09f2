// All-pairs expression quantitative trait loci (eQTL) analysis — the
// extension the paper's conclusion points to ("can be readily extended to
// analysis of DNA and RNA sequencing data, including eQTL ...").
//
// Every SNP is tested against every expression phenotype through the
// internal/assoc engine: the genotype matrix streams through 2-bit packed
// blocks, the phenotype matrix rides along (broadcast here — it is tiny),
// and each block partition scores all phenotypes in one pass with the wide
// multi-phenotype kernel, reducing to a streaming top-K plus a
// histogram-sketch Benjamini–Hochberg FDR summary.
//
// Three cis-like signals are planted — three (SNP, phenotype) pairs where
// the expression level shifts additively with the minor-allele dosage — and
// the example shows them surfacing at the head of the top-K out of 48,000
// tests.
//
//	go run ./examples/eqtl_gaussian
package main

import (
	"fmt"
	"log"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

const (
	patients = 400
	snps     = 2000
	phenos   = 24
	effect   = 0.7 // expression shift per minor allele at a planted pair
	topK     = 10

	// histBins is the FDR sketch width. At 48,000 tests a bin edge u must
	// clear u <= alpha*C/48000 to become the BH threshold, so the first bin
	// needs to sit near 1e-6 — a 2^20-wide sketch — for the handful of
	// planted pairs to register as discoveries.
	histBins = 1 << 20
)

// planted are the causal (SNP, phenotype) pairs the engine should recover.
var planted = []struct{ snp, pheno int }{
	{snp: 42, pheno: 3},
	{snp: 777, pheno: 11},
	{snp: 1502, pheno: 20},
}

func main() {
	ds, err := gen.Generate(gen.Config{Patients: patients, SNPs: snps, SNPSets: 4}, 21)
	if err != nil {
		log.Fatal(err)
	}
	expr := gen.ExpressionMatrix(gen.Config{Patients: patients}, rng.New(77), phenos)
	plantSignals(ds.Genotypes, expr)

	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{Nodes: 4, Spec: cluster.M3TwoXLarge},
		Seed:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	paths, err := assoc.Stage(ctx, ds.Genotypes, expr, "eqtl")
	if err != nil {
		log.Fatal(err)
	}
	cfg := assoc.Config{TopK: topK, HistBins: histBins}
	analysis, err := assoc.NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := analysis.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("all-pairs eQTL (gaussian score): %d samples, %d SNPs x %d phenotypes = %d tests\n",
		patients, snps, phenos, res.Tested)
	fmt.Printf("planted pairs: ")
	for i, p := range planted {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("snp%d->pheno%d", p.snp, p.pheno)
	}
	fmt.Printf(" (+%.1f expression units per allele)\n\n", effect)

	isPlanted := map[[2]int32]bool{}
	for _, p := range planted {
		isPlanted[[2]int32{int32(p.snp), int32(p.pheno)}] = true
	}
	fmt.Printf("top %d pairs by p-value:\n", topK)
	fmt.Printf("%-8s %-8s %12s %12s\n", "snp", "pheno", "chi2-p", "")
	recovered := 0
	for _, p := range res.TopK {
		marker := ""
		if isPlanted[[2]int32{p.SNP, p.Pheno}] {
			marker = "<== planted"
			recovered++
		}
		fmt.Printf("%-8d %-8d %12.3g %12s\n", p.SNP, p.Pheno, p.PValue, marker)
	}
	fmt.Printf("\nBH-FDR at alpha %.2f (sketch width %d): threshold %.3g, %d discoveries\n",
		res.FDR.Alpha, res.FDR.Bins, res.FDR.Threshold, res.FDR.Discoveries)
	fmt.Printf("%d of %d planted pairs recovered; simulated cluster time %.1f s\n",
		recovered, len(planted), ctx.VirtualTime())
}

// plantSignals adds an additive genotype effect to each planted phenotype:
// expression = N(0,1) background (from gen.ExpressionMatrix) + effect x
// dosage at the causal SNP. Missing genotypes contribute nothing, matching
// the scoring rule.
func plantSignals(geno *data.GenotypeMatrix, expr *data.PhenoMatrix) {
	for _, p := range planted {
		row := expr.Row(p.pheno)
		for i, g := range geno.Row(p.snp) {
			if g > 0 {
				row[i] += effect * float64(g)
			}
		}
	}
}
