// PhenoMatrix: the expression-phenotype unit of the all-pairs association
// engine. A matrix holds M phenotype rows (one expression trait per row,
// phenotype-major, mirroring the SNP-major genotype layout) over a fixed
// patient cohort, in one flat float64 allocation. Its text format follows the
// genotype file's line discipline so it can be split into HDFS-style blocks
// at line boundaries and parsed independently per partition:
//
//	phenomatrix: <pheno>\t<y_1> <y_2> ... <y_n>
//
// Values are written with strconv's shortest round-trip formatting, so a
// write/parse cycle reproduces every float bit for bit; non-finite values are
// rejected on both paths (NaN would break the round-trip property and the
// score models alike).
package data

import (
	"bufio"
	"fmt"
	"io"
)

// PhenoMatrix is a phenotype-major matrix of quantitative outcomes: row r
// holds phenotype IDs[r]'s value for every patient.
type PhenoMatrix struct {
	// Patients is the number of values per row.
	Patients int
	// IDs holds the phenotype id of each row, in row order.
	IDs []int32
	// Values holds the rows back to back: row r is
	// Values[r*Patients : (r+1)*Patients].
	Values []float64
}

// NewPhenoMatrix returns an empty matrix for the given patient count with
// capacity for capRows rows.
func NewPhenoMatrix(patients, capRows int) PhenoMatrix {
	return PhenoMatrix{
		Patients: patients,
		IDs:      make([]int32, 0, capRows),
		Values:   make([]float64, 0, capRows*patients),
	}
}

// Rows returns the number of phenotype rows.
func (m *PhenoMatrix) Rows() int { return len(m.IDs) }

// Row returns the values of row r.
func (m *PhenoMatrix) Row(r int) []float64 {
	return m.Values[r*m.Patients : (r+1)*m.Patients]
}

// Phenotype wraps row r as a *Phenotype for the score-model constructors.
// The Y slice is shared with the matrix; callers must not mutate it. The
// event column is all-zero — the Gaussian and Binomial families the all-pairs
// engine supports never read it.
func (m *PhenoMatrix) Phenotype(r int) *Phenotype {
	return &Phenotype{Y: m.Row(r), Event: make([]uint8, m.Patients)}
}

// AppendRow appends one phenotype row. Values must be finite.
func (m *PhenoMatrix) AppendRow(id int, vals []float64) error {
	if len(vals) != m.Patients {
		return fmt.Errorf("data: phenotype %d has %d values, want %d", id, len(vals), m.Patients)
	}
	for i, v := range vals {
		if !finite(v) {
			return fmt.Errorf("data: phenotype %d patient %d has non-finite value %v", id, i, v)
		}
	}
	m.IDs = append(m.IDs, int32(id))
	m.Values = append(m.Values, vals...)
	return nil
}

// ApproxBytes estimates the matrix's resident size for cache accounting.
func (m PhenoMatrix) ApproxBytes() int64 {
	return 8*int64(len(m.Values)) + 4*int64(len(m.IDs)) + 96
}

// WritePhenoMatrix writes m in the phenotype-matrix text format.
func WritePhenoMatrix(w io.Writer, m *PhenoMatrix) error {
	return writeLines(w, m.Rows(), func(bw *bufio.Writer, r int) { writeFloatRow(bw, int(m.IDs[r]), m.Row(r)) })
}

// ReadPhenoMatrix parses the phenotype-matrix text format: one value slice
// per row as readTable scans, then the matrix, allocated once and filled in
// id order.
func ReadPhenoMatrix(r io.Reader) (*PhenoMatrix, error) {
	patients := -1
	rows, err := readTable(r, phenoMatrixTable, func(rest string) ([]float64, error) {
		return floatRow(rest, &patients, func(i int, f string) error { return fmt.Errorf("field %d: bad value %q", i, f) })
	})
	if err != nil {
		return nil, err
	}
	m := NewPhenoMatrix(patients, len(rows))
	for id, vals := range rows {
		m.IDs = append(m.IDs, int32(id))
		m.Values = append(m.Values, vals...)
	}
	return &m, nil
}
