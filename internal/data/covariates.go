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
	return writeLines(w, len(c.Rows), func(bw *bufio.Writer, i int) { writeFloatRow(bw, i, c.Rows[i]) })
}

// ReadCovariates parses the covariates text format.
func ReadCovariates(r io.Reader) (*Covariates, error) {
	width := -1
	rows, err := readTable(r, covariateTable, func(rest string) ([]float64, error) {
		return floatRow(rest, &width, func(_ int, f string) error { return fmt.Errorf("bad value %q", f) })
	})
	if err != nil {
		return nil, err
	}
	return &Covariates{Rows: rows}, nil
}
