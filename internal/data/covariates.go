// Baseline covariates: the clinical variables (age, sex, treatment arm, ...)
// the analysis adjusts for. The paper highlights covariate support as an
// advantage of the efficient score method and of Lin's Monte Carlo
// resampling in particular.
//
// Text format, one line per patient:
//
//	covariates: <patient>\t<v_1> <v_2> ... <v_p>

package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Covariates is an n×p matrix: Rows[i] holds patient i's covariate values.
// All rows have the same width; an intercept is NOT included (models add it).
type Covariates struct {
	Rows [][]float64
}

// Patients returns the number of patients (rows).
func (c *Covariates) Patients() int { return len(c.Rows) }

// Width returns the number of covariates per patient (0 if empty).
func (c *Covariates) Width() int {
	if len(c.Rows) == 0 {
		return 0
	}
	return len(c.Rows[0])
}

// Validate checks rectangular shape and finite values.
func (c *Covariates) Validate() error {
	w := c.Width()
	for i, row := range c.Rows {
		if len(row) != w {
			return fmt.Errorf("data: covariate row %d has %d values, want %d", i, len(row), w)
		}
		for j, v := range row {
			if !finite(v) {
				return fmt.Errorf("data: covariate (%d,%d) is %v", i, j, v)
			}
		}
	}
	return nil
}

// WriteCovariates writes c in the covariates text format.
func WriteCovariates(w io.Writer, c *Covariates) error {
	bw := bufio.NewWriter(w)
	var sb strings.Builder
	for i, row := range c.Rows {
		sb.Reset()
		sb.WriteString(strconv.Itoa(i))
		sb.WriteByte('\t')
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCovariates parses the covariates text format.
func ReadCovariates(r io.Reader) (*Covariates, error) {
	rows := map[int][]float64{}
	maxID := -1
	width := -1
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		idStr, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("data: covariate line %d: missing tab", sc.lineNo)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("data: covariate line %d: bad patient id %q", sc.lineNo, idStr)
		}
		fields := strings.Fields(rest)
		vals := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || !finite(v) {
				return nil, fmt.Errorf("data: covariate line %d: bad value %q", sc.lineNo, f)
			}
			vals[j] = v
		}
		if width == -1 {
			width = len(vals)
		} else if len(vals) != width {
			return nil, fmt.Errorf("data: covariate line %d: %d values, want %d", sc.lineNo, len(vals), width)
		}
		if _, dup := rows[id]; dup {
			return nil, fmt.Errorf("data: duplicate covariates for patient %d", id)
		}
		rows[id] = vals
		if id > maxID {
			maxID = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: empty covariate file")
	}
	if len(rows) != maxID+1 {
		return nil, fmt.Errorf("data: %d covariate rows but max patient id is %d", len(rows), maxID)
	}
	c := &Covariates{Rows: make([][]float64, maxID+1)}
	for id, vals := range rows {
		c.Rows[id] = vals
	}
	return c, nil
}
