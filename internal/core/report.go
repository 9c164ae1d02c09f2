// Result serialisation: the per-set output table an analysis pipeline would
// hand downstream (tab-separated, one row per SNP-set).

package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
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
