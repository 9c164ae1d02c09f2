// Result serialisation: the per-set output table an analysis pipeline would
// hand downstream (tab-separated, one row per SNP-set).

package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteResult writes res as a TSV with a header:
//
//	set	name	snps	observed	exceed	iterations	pvalue
//
// pvalue is "NA" when no resampling iterations were run.
func WriteResult(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "set\tname\tsnps\tobserved\texceed\titerations\tpvalue"); err != nil {
		return err
	}
	for k := range res.Observed {
		p := "NA"
		if res.PValues != nil {
			p = strconv.FormatFloat(res.PValues[k], 'g', 10, 64)
		}
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%d\t%g\t%d\t%d\t%s\n",
			k, res.Sets[k].Name, len(res.Sets[k].SNPs), res.Observed[k],
			res.Exceed[k], res.Iterations, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadResultPValues parses the pvalue column of a WriteResult TSV back into
// a slice indexed by set (NA entries become NaN-free -1 so downstream code
// can detect them without NaN plumbing).
func ReadResultPValues(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	var out []float64
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if !strings.HasPrefix(line, "set\t") {
				return nil, fmt.Errorf("core: not a result file (header %.40q)", line)
			}
			continue
		}
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 7 {
			return nil, fmt.Errorf("core: result row has %d fields, want 7", len(fields))
		}
		if fields[6] == "NA" {
			out = append(out, -1)
			continue
		}
		p, err := strconv.ParseFloat(fields[6], 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad pvalue %q", fields[6])
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
