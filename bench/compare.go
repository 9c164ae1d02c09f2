// bench -compare a.json b.json: for every workload and end-to-end metric,
// both files' medians with their quartiles, the ratio with its base, and a
// verdict against the declared bound. The same rule serves the A/A check
// (two reports of one commit) and parent-versus-change.

package main

import (
	"fmt"
	"io"
)

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// pooled gathers a metric's raw samples over every untraced run of a workload
// in a report: per pass, per segment or per set-up, as the metric has them.
func pooled(fr *fileReport, workload, metric string) []float64 {
	var xs []float64
	for _, r := range fr.Runs {
		if r.Workload == workload && !r.Traced {
			xs = append(xs, r.Samples[metric]...)
		}
	}
	return xs
}

// judge compares a candidate's samples with a base's. The candidate has
// regressed when its median is worse than the base's by more than the bound;
// the comparison is unresolved when either side's interquartile range,
// as a share of its median, is wider than the bound.
func judge(d metricDef, base, cand []float64) (verdict string, ratio float64) {
	mb, mc := median(base), median(cand)
	ratio = mc / mb
	worse := ratio - 1
	if d.Better == higher {
		worse = 1 - ratio
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed, ratio
	case spread(base) > d.Bound || spread(cand) > d.Bound:
		return verdictUnresolved, ratio
	}
	return verdictOK, ratio
}

// compareReports prints the comparison of report b against base a and reports
// whether any metric regressed.
func compareReports(w io.Writer, a, b string) (regressed bool, err error) {
	base, err := readFileReport(a)
	if err != nil {
		return false, err
	}
	cand, err := readFileReport(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (commit %s)\ncand %s (commit %s)\n", a, base.Stamp.Commit, b, cand.Stamp.Commit)
	fmt.Fprintf(w, "%-12s %-15s %-34s %-34s %-16s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "cand median [q1, q3]", "cand/base", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs, ys := pooled(base, wl.Name, d.Name), pooled(cand, wl.Name, d.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			verdict, ratio := judge(d, xs, ys)
			regressed = regressed || verdict == verdictRegressed
			cell := func(v []float64) string {
				q1, q3 := quartiles(v)
				return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", median(v), q1, q3, len(v))
			}
			fmt.Fprintf(w, "%-12s %-15s %-34s %-34s %-16s %5.0f%%  %s\n", wl.Name, d.Name, cell(xs), cell(ys),
				fmt.Sprintf("%.4f of %.5g", ratio, median(xs)), 100*d.Bound, verdict)
		}
	}
	return regressed, nil
}
