package data

import (
	"math"
	"testing"
)

func sampleMatrix() *GenotypeMatrix {
	m := NewGenotypeMatrix(3, 4)
	copy(m.Rows[0], []Genotype{0, 1, 2, 0})
	copy(m.Rows[1], []Genotype{2, 2, 1, 0})
	copy(m.Rows[2], []Genotype{0, 0, 0, 1})
	return m
}

func TestNewGenotypeMatrixShape(t *testing.T) {
	m := NewGenotypeMatrix(5, 7)
	if m.SNPs() != 5 || m.Patients != 7 {
		t.Fatalf("shape = (%d,%d), want (5,7)", m.SNPs(), m.Patients)
	}
	for j := 0; j < 5; j++ {
		if len(m.Row(j)) != 7 {
			t.Fatalf("row %d has length %d", j, len(m.Row(j)))
		}
	}
}

func TestGenotypeMatrixRowsIndependent(t *testing.T) {
	m := NewGenotypeMatrix(2, 3)
	m.Rows[0] = append(m.Rows[0], 9) // exceed capacity of shared backing? must not touch row 1
	m.Rows[1][0] = 2
	if m.Rows[0][0] != 0 {
		t.Fatal("row append corrupted row 0")
	}
	if m.Rows[1][0] != 2 {
		t.Fatal("row 1 write lost")
	}
}

func TestGenotypeMatrixValidate(t *testing.T) {
	m := sampleMatrix()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	m.Rows[1][2] = 3
	if err := m.Validate(); err == nil {
		t.Fatal("genotype 3 accepted")
	}
	m = sampleMatrix()
	m.Rows[0] = m.Rows[0][:2]
	if err := m.Validate(); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestPhenotypeValidate(t *testing.T) {
	p := NewPhenotype(3)
	p.Y = []float64{1, 2, 3}
	p.Event = []uint8{1, 0, 1}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid phenotype rejected: %v", err)
	}
	p.Event[1] = 2
	if err := p.Validate(); err == nil {
		t.Fatal("event indicator 2 accepted")
	}
	p.Event = p.Event[:2]
	if err := p.Validate(); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestPhenotypePermuted(t *testing.T) {
	p := &Phenotype{Y: []float64{10, 20, 30}, Event: []uint8{1, 0, 1}}
	q := p.Permuted([]int{2, 0, 1})
	if q.Y[0] != 30 || q.Event[0] != 1 {
		t.Fatalf("entry 0 = (%v,%d), want (30,1)", q.Y[0], q.Event[0])
	}
	if q.Y[1] != 10 || q.Event[1] != 1 {
		t.Fatalf("entry 1 = (%v,%d), want (10,1)", q.Y[1], q.Event[1])
	}
	if q.Y[2] != 20 || q.Event[2] != 0 {
		t.Fatalf("entry 2 = (%v,%d), want (20,0)", q.Y[2], q.Event[2])
	}
	// Original must be untouched.
	if p.Y[0] != 10 || p.Event[1] != 0 {
		t.Fatal("Permuted mutated the original")
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := (Weights{1, 0.5, 0}).Validate(); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
	if err := (Weights{1, -0.5}).Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := (Weights{1, bad}).Validate(); err == nil {
			t.Fatalf("weight %v accepted", bad)
		}
	}
}

func TestSNPSetsValidate(t *testing.T) {
	s := SNPSets{{Name: "g1", SNPs: []int{0, 2}}, {Name: "g2", SNPs: []int{1}}}
	if err := s.Validate(3); err != nil {
		t.Fatalf("valid sets rejected: %v", err)
	}
	if err := s.Validate(2); err == nil {
		t.Fatal("out-of-range SNP accepted")
	}
	s = append(s, SNPSet{Name: "empty"})
	if err := s.Validate(3); err == nil {
		t.Fatal("empty set accepted")
	}
	// A SNP may sit in several sets, but only once in each.
	shared := SNPSets{{Name: "a", SNPs: []int{2, 0}}, {Name: "b", SNPs: []int{0}}, {Name: "c", SNPs: []int{1, 0, 2, 0}}}
	if err := shared.Validate(3); err == nil || err.Error() != `data: SNP-set 2 ("c") lists SNP 0 twice` {
		t.Fatalf("SNP listed twice in a set: %v", err)
	}
	if err := shared[:2].Validate(3); err != nil {
		t.Fatalf("SNP in two sets rejected: %v", err)
	}
}

func TestSNPSetsTotalMembers(t *testing.T) {
	s := SNPSets{{Name: "a", SNPs: []int{3, 1}}, {Name: "b", SNPs: []int{1, 5}}}
	if s.TotalMembers() != 4 {
		t.Fatalf("TotalMembers = %d, want 4", s.TotalMembers())
	}
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{
		Genotypes: sampleMatrix(),
		Phenotype: &Phenotype{Y: []float64{1, 2, 3, 4}, Event: []uint8{1, 1, 0, 1}},
		Weights:   Weights{1, 1, 1},
		SNPSets:   SNPSets{{Name: "g", SNPs: []int{0, 1, 2}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	d.Weights = Weights{1, 1}
	if err := d.Validate(); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
	d.Weights = Weights{1, 1, 1}
	d.Phenotype = &Phenotype{Y: []float64{1, 2}, Event: []uint8{1, 0}}
	if err := d.Validate(); err == nil {
		t.Fatal("patient count mismatch accepted")
	}
}

func TestCovariatesValidate(t *testing.T) {
	c := &Covariates{Rows: [][]float64{{1, 2}, {3, 4}}}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid covariates rejected: %v", err)
	}
	if c.Patients() != 2 || c.Width() != 2 {
		t.Fatalf("shape (%d,%d)", c.Patients(), c.Width())
	}
	c.Rows[1] = []float64{3}
	if err := c.Validate(); err == nil {
		t.Fatal("ragged covariates accepted")
	}
	c.Rows[1] = []float64{3, nan()}
	if err := c.Validate(); err == nil {
		t.Fatal("NaN covariate accepted")
	}
	c.Rows[1] = []float64{3, math.Inf(-1)}
	if err := c.Validate(); err == nil {
		t.Fatal("infinite covariate accepted")
	}
}

func nan() float64 {
	v := 0.0
	return v / v
}

func TestDatasetValidateCovariates(t *testing.T) {
	d := &Dataset{
		Genotypes:  sampleMatrix(),
		Phenotype:  &Phenotype{Y: []float64{1, 2, 3, 4}, Event: []uint8{1, 1, 0, 1}},
		Weights:    Weights{1, 1, 1},
		SNPSets:    SNPSets{{Name: "g", SNPs: []int{0, 1, 2}}},
		Covariates: &Covariates{Rows: [][]float64{{1}, {2}, {3}, {4}}},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("dataset with covariates rejected: %v", err)
	}
	d.Covariates = &Covariates{Rows: [][]float64{{1}, {2}}}
	if err := d.Validate(); err == nil {
		t.Fatal("covariate patient-count mismatch accepted")
	}
}
