// Package metrics provides the formatting layer of the benchmark harness:
// aligned text tables and the seconds and percent renderings the regenerated
// figures share.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is an aligned text table with a title, a header, and string cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are rejected.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row with %d cells in a %d-column table", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: strings pass through, float64
// are rendered %.1f, ints %d.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = FormatSeconds(v)
		case int:
			out[i] = fmt.Sprintf("%d", v)
		case int64:
			out[i] = fmt.Sprintf("%d", v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatPercent renders a fraction (0.125 → "12.5%") with a precision that
// keeps small recovery overheads visible without drowning larger ones in
// digits.
func FormatPercent(v float64) string {
	switch {
	case math.IsNaN(v):
		return "N/A"
	case v == 0:
		return "0%"
	case math.Abs(v) < 0.001:
		return fmt.Sprintf("%.3f%%", v*100)
	case math.Abs(v) < 0.1:
		return fmt.Sprintf("%.2f%%", v*100)
	default:
		return fmt.Sprintf("%.1f%%", v*100)
	}
}

// FormatSeconds renders a duration in seconds with a precision that keeps
// both sub-second and multi-thousand-second values readable.
func FormatSeconds(v float64) string {
	switch {
	case math.IsNaN(v):
		return "N/A"
	case v == 0:
		return "0"
	case math.Abs(v) < 10:
		return fmt.Sprintf("%.3f", v)
	case math.Abs(v) < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
