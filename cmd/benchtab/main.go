// Command benchtab regenerates the paper's tables and figures:
//
//	benchtab -exp fig2            # one artifact (figures or tables)
//	benchtab -exp all             # everything, in paper order
//	benchtab -exp fig5 -scale 10  # closer to paper-scale inputs (slower)
//
// Output is the same rows/series the paper reports, with runtimes in
// simulated cluster seconds (see DESIGN.md for the substitution of Amazon
// EMR by the discrete-event cluster model).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sparkscore/internal/harness"
)

func main() {
	var ids []string
	for _, e := range harness.Experiments() {
		ids = append(ids, e.ID)
	}
	known := strings.Join(ids, ", ") + " (plus table aliases tab2..tab8)"
	var (
		exp      = flag.String("exp", "all", "artifact id: "+known+", or \"all\"")
		scale    = flag.Int("scale", 100, "divide the paper's SNP counts, block size, and executor memory by this")
		maxIters = flag.Int("max-iters", 0, "cap resampling iterations (0 = run the paper's full axes)")
		seed     = flag.Uint64("seed", 1, "seed for data generation and resampling")
		events   = flag.String("events", "", "write one JSONL event log per measured run into this directory (render with sparkui)")
	)
	flag.Parse()
	if *scale < 1 || *maxIters < 0 {
		fmt.Fprintf(os.Stderr, "benchtab: -scale must be at least 1 and -max-iters non-negative (got %d, %d)\n", *scale, *maxIters)
		os.Exit(2)
	}

	if *events != "" {
		if err := os.MkdirAll(*events, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
	h := &harness.Harness{Scale: *scale, MaxIterations: *maxIters, Seed: *seed, EventLogDir: *events}
	start := time.Now()
	var err error
	if *exp == "all" {
		err = harness.RunAll(h, os.Stdout)
	} else {
		e, ok := harness.Resolve(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtab: unknown artifact %q; known: %s\n", *exp, known)
			os.Exit(2)
		}
		fmt.Printf("== %s ==\n", e.Title)
		err = e.Run(h, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	fmt.Printf("\nbenchtab: done in %.1fs wall (scale 1/%d)\n", time.Since(start).Seconds(), *scale)
	if *events != "" {
		fmt.Printf("benchtab: per-run event logs in %s (render with: sparkui -log <file> [-trace <out.json>])\n", *events)
	}
}
