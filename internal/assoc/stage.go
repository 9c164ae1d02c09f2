// Staging the all-pairs phenotype matrix onto the simulated HDFS, and the
// deterministic text report that tests compare byte-for-byte across engine
// configurations.

package assoc

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"sparkscore/internal/data"
	"sparkscore/internal/rdd"
)

// StagePhenotypes writes the phenotype matrix's text to path on the
// context's file system, which keeps the slice Create hands it for as long as
// the file lives. The genotypes an analysis crosses it with are the dataset's,
// staged by core.StageDataset.
func StagePhenotypes(ctx *rdd.Context, path string, m *data.PhenoMatrix) error {
	w := ctx.FS().Create(path)
	if err := data.WritePhenoMatrix(w, m); err != nil {
		return fmt.Errorf("assoc: encoding phenotypes: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("assoc: staging phenotypes: %w", err)
	}
	return nil
}

// WriteReport writes res as a deterministic TSV: a summary header, then one
// line per top-K pair. Floats use shortest round-trip formatting, so equal
// results produce byte-identical reports.
func WriteReport(w io.Writer, res *Result) error {
	bw := bufio.NewWriter(w)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(bw, "tested\t%d\n", res.Tested)
	fmt.Fprintf(bw, "phenotypes\t%d\n", res.Phenos)
	fmt.Fprintf(bw, "alpha\t%s\n", g(res.FDR.Alpha))
	fmt.Fprintf(bw, "hist_bins\t%d\n", res.FDR.Bins)
	fmt.Fprintf(bw, "fdr_threshold\t%s\n", g(res.FDR.Threshold))
	fmt.Fprintf(bw, "discoveries\t%d\n", res.FDR.Discoveries)
	fmt.Fprintf(bw, "snp\tpheno\tscore\tvariance\tpvalue\n")
	for _, p := range res.TopK {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%s\n", p.SNP, p.Pheno, g(p.Score), g(p.Variance), g(p.PValue))
	}
	return bw.Flush()
}
