// Package data defines SparkScore's input data model — genotype matrices,
// phenotypes, SNP weights, and SNP-sets — together with the tab-separated
// text formats the paper stores on HDFS (Algorithm 1 reads a "Genotype Matrix
// Text File", a "SNP Weight Text File", pairs of events and survival times,
// and SNP-set definitions).
//
// SNPs are indexed 0..J-1 and patients 0..n-1, mirroring the paper's
// "without loss of generality, we index the SNPs using the integers 1..J".
package data

import (
	"fmt"
)

// Genotype values are counts of the minor allele and therefore in {0, 1, 2}.
// int8 keeps a 1M-SNP × 1000-patient matrix under 1 GiB.
type Genotype = int8

// GenotypeMatrix is a SNP-major genotype matrix: Rows[j][i] is the genotype
// G_ij of patient i at SNP j. SNP-major layout matches the paper's RDD of
// (SNP, per-patient values) pairs and makes per-SNP score computation a
// sequential scan.
type GenotypeMatrix struct {
	Patients int
	Rows     [][]Genotype
}

// NewGenotypeMatrix allocates a matrix for the given shape with all genotypes
// zero, backed by a single allocation.
func NewGenotypeMatrix(snps, patients int) *GenotypeMatrix {
	backing := make([]Genotype, snps*patients)
	rows := make([][]Genotype, snps)
	for j := range rows {
		rows[j], backing = backing[:patients:patients], backing[patients:]
	}
	return &GenotypeMatrix{Patients: patients, Rows: rows}
}

// SNPs returns the number of SNPs (rows) in the matrix.
func (m *GenotypeMatrix) SNPs() int { return len(m.Rows) }

// Row returns the genotype vector for SNP j across all patients.
func (m *GenotypeMatrix) Row(j int) []Genotype { return m.Rows[j] }

// Validate checks that every row has the declared patient count and every
// genotype is in {0, 1, 2}.
func (m *GenotypeMatrix) Validate() error {
	for j, row := range m.Rows {
		if len(row) != m.Patients {
			return fmt.Errorf("data: SNP %d has %d genotypes, want %d", j, len(row), m.Patients)
		}
		for i, g := range row {
			if g < 0 || g > 2 {
				return fmt.Errorf("data: SNP %d patient %d has genotype %d outside {0,1,2}", j, i, g)
			}
		}
	}
	return nil
}

// Phenotype holds the outcome of interest for each patient. For the survival
// setting of the paper this is the pair (Y_i, Δ_i): Y is the observed time
// (death or last follow-up) and Event is the indicator (1 = death observed,
// 0 = censored). For quantitative (Gaussian) phenotypes only Y is used, and
// for binary (Binomial) phenotypes Y is 0/1.
type Phenotype struct {
	Y     []float64
	Event []uint8
}

// NewPhenotype allocates a phenotype for n patients.
func NewPhenotype(n int) *Phenotype {
	return &Phenotype{Y: make([]float64, n), Event: make([]uint8, n)}
}

// Patients returns the number of patients.
func (p *Phenotype) Patients() int { return len(p.Y) }

// Validate checks shape agreement and that event indicators are 0/1.
func (p *Phenotype) Validate() error {
	if len(p.Y) != len(p.Event) {
		return fmt.Errorf("data: %d outcomes but %d event indicators", len(p.Y), len(p.Event))
	}
	for i, e := range p.Event {
		if e > 1 {
			return fmt.Errorf("data: patient %d has event indicator %d outside {0,1}", i, e)
		}
	}
	return nil
}

// Permuted returns a new Phenotype whose (Y, Event) pairs are rearranged by
// perm: entry i of the result is the pair of patient perm[i]. This is the
// phenotype shuffle of the paper's permutation resampling, which keeps each
// patient's (time, indicator) pair intact while breaking the link to
// genotypes.
func (p *Phenotype) Permuted(perm []int) *Phenotype {
	q := NewPhenotype(len(p.Y))
	for i, src := range perm {
		q.Y[i] = p.Y[src]
		q.Event[i] = p.Event[src]
	}
	return q
}

// Weights holds the per-SNP weights ω_j used in the SKAT statistic. SNPs may
// be weighted by genotyping quality, allelic frequency, or functional
// annotation; the statistic uses ω_j².
type Weights []float64

// Validate checks that every weight is finite and not negative.
func (w Weights) Validate() error {
	for j, v := range w {
		if !(v >= 0 && finite(v)) {
			return fmt.Errorf("data: SNP %d has invalid weight %v", j, v)
		}
	}
	return nil
}

// SNPSet is one gene-level set I_k: a named non-empty collection of SNP
// indices whose marginal scores are aggregated into the set statistic S_k.
type SNPSet struct {
	Name string
	SNPs []int
}

// SNPSets is the partition {I_1, ..., I_K} of the analysed SNPs.
type SNPSets []SNPSet

// Validate checks that every set is non-empty and references only SNPs in
// [0, totalSNPs), each once: a SNP listed twice would add its term twice.
func (s SNPSets) Validate(totalSNPs int) error {
	lastSet := make([]int, totalSNPs) // k+1 for the last set k listing SNP j
	for k, set := range s {
		if len(set.SNPs) == 0 {
			return fmt.Errorf("data: SNP-set %d (%q) is empty", k, set.Name)
		}
		for _, j := range set.SNPs {
			if j < 0 || j >= totalSNPs {
				return fmt.Errorf("data: SNP-set %d (%q) references SNP %d outside [0,%d)", k, set.Name, j, totalSNPs)
			}
			if lastSet[j] == k+1 {
				return fmt.Errorf("data: SNP-set %d (%q) lists SNP %d twice", k, set.Name, j)
			}
			lastSet[j] = k + 1
		}
	}
	return nil
}

// TotalMembers returns the sum of set sizes (counting duplicates across sets).
func (s SNPSets) TotalMembers() int {
	n := 0
	for _, set := range s {
		n += len(set.SNPs)
	}
	return n
}

// Dataset bundles the four inputs of Algorithm 1, plus optional baseline
// covariates for adjusted analyses.
type Dataset struct {
	Genotypes *GenotypeMatrix
	Phenotype *Phenotype
	Weights   Weights
	SNPSets   SNPSets

	// Covariates is optional; when present the score models adjust for it.
	Covariates *Covariates
}

// Validate cross-checks all components of the dataset.
func (d *Dataset) Validate() error {
	if err := d.Genotypes.Validate(); err != nil {
		return err
	}
	if err := d.Phenotype.Validate(); err != nil {
		return err
	}
	if d.Phenotype.Patients() != d.Genotypes.Patients {
		return fmt.Errorf("data: phenotype has %d patients, genotypes have %d",
			d.Phenotype.Patients(), d.Genotypes.Patients)
	}
	if err := d.Weights.Validate(); err != nil {
		return err
	}
	if len(d.Weights) != d.Genotypes.SNPs() {
		return fmt.Errorf("data: %d weights for %d SNPs", len(d.Weights), d.Genotypes.SNPs())
	}
	if d.Covariates != nil {
		if err := d.Covariates.Validate(); err != nil {
			return err
		}
		if d.Covariates.Patients() != d.Phenotype.Patients() {
			return fmt.Errorf("data: covariates for %d patients, phenotype has %d",
				d.Covariates.Patients(), d.Phenotype.Patients())
		}
	}
	return d.SNPSets.Validate(d.Genotypes.SNPs())
}
