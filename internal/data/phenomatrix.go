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
	"math"
	"strconv"
	"strings"
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
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("data: phenotype %d patient %d has non-finite value %v", id, i, v)
		}
	}
	m.IDs = append(m.IDs, int32(id))
	m.Values = append(m.Values, vals...)
	return nil
}

// WriteTextRow appends row r in the phenotype-matrix text format
// ("pheno\ty1 y2 ...") to sb, using shortest-round-trip float formatting.
func (m *PhenoMatrix) WriteTextRow(r int, sb *strings.Builder) {
	sb.WriteString(strconv.Itoa(int(m.IDs[r])))
	sb.WriteByte('\t')
	row := m.Row(r)
	for i, v := range row {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	sb.WriteByte('\n')
}

// ApproxBytes estimates the matrix's resident size for cache accounting.
func (m PhenoMatrix) ApproxBytes() int64 {
	return 8*int64(len(m.Values)) + 4*int64(len(m.IDs)) + 96
}

// WritePhenoMatrix writes m in the phenotype-matrix text format.
func WritePhenoMatrix(w io.Writer, m *PhenoMatrix) error {
	bw := bufio.NewWriter(w)
	var sb strings.Builder
	for r := 0; r < m.Rows(); r++ {
		sb.Reset()
		m.WriteTextRow(r, &sb)
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPhenoMatrix parses the phenotype-matrix text format. Lines may arrive
// in any order; the phenotype id on each line places the row, and ids must be
// dense 0..M-1.
func ReadPhenoMatrix(r io.Reader) (*PhenoMatrix, error) {
	type parsedRow struct {
		id   int
		vals []float64
	}
	var rows []parsedRow
	maxID := -1
	patients := -1
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		idStr, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("data: phenomatrix line %d: missing tab", sc.lineNo)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("data: phenomatrix line %d: bad phenotype id %q", sc.lineNo, idStr)
		}
		fields := strings.Fields(rest)
		vals := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("data: phenomatrix line %d: field %d: bad value %q", sc.lineNo, i+1, f)
			}
			vals[i] = v
		}
		if patients == -1 {
			patients = len(vals)
		} else if len(vals) != patients {
			return nil, fmt.Errorf("data: phenomatrix line %d: %d values, want %d", sc.lineNo, len(vals), patients)
		}
		if id > maxID {
			maxID = id
		}
		rows = append(rows, parsedRow{id, vals})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: empty phenotype matrix")
	}
	if len(rows) != maxID+1 {
		return nil, fmt.Errorf("data: %d phenotype rows but max phenotype id is %d", len(rows), maxID)
	}
	m := NewPhenoMatrix(patients, maxID+1)
	m.Values = m.Values[:(maxID+1)*patients]
	m.IDs = m.IDs[:maxID+1]
	seen := make([]bool, maxID+1)
	for _, pr := range rows {
		if seen[pr.id] {
			return nil, fmt.Errorf("data: duplicate phenotype row for id %d", pr.id)
		}
		seen[pr.id] = true
		m.IDs[pr.id] = int32(pr.id)
		copy(m.Values[pr.id*patients:(pr.id+1)*patients], pr.vals)
	}
	return &m, nil
}
