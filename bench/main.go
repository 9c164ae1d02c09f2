// Command bench is the repository's host-clock benchmark: four flagship
// workloads measured end to end on the wall clock, and again traced, with each
// layer's public functions replayed on the same input. BENCHMARK.json at the
// repository root declares its metrics and workloads; README.md is the
// glossary.
//
// One workload, as the driver runs it (the last line of standard output is the
// result object):
//
//	go run ./bench -workload mc_cached -seed 1 -seconds 10 -trace 0
//
// Everything: each workload untraced then traced, one child process at a
// time so that every run has a clean heap and its own resource usage, all
// metrics printed by name and the reports merged into -out:
//
//	go run ./bench -seed 1
//
// Two such reports compared against the declared bounds:
//
//	go run ./bench -compare a.json b.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload in this process and end with the result line (default: every workload, untraced and traced, each in a child process)")
		seed    = fs.Uint64("seed", 1, "seed of the generated inputs, the request schedule and the resampling draws")
		seconds = fs.Float64("seconds", runSeconds, "how long one run measures; scales pass counts only, never shapes")
		trace   = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics untraced, 1 the per-layer metrics traced")
		out     = fs.String("out", "", "write the full report (stamp, raw samples, checks) to this file (default bench/out/report.json when running every workload)")
		compare = fs.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		regressed, err := compareReports(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0

	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		if *trace != 0 && *trace != 1 {
			return fail(fmt.Errorf("-trace is 0 or 1"))
		}
		rep, err := w.run(w, runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, traceDir: outDir, log: stdout})
		if err != nil {
			return fail(err)
		}
		rep.print(stdout)
		if *out != "" {
			if err := writeJSONFile(*out, fileReport{Stamp: newStamp(), Runs: []runReport{*rep}}); err != nil {
				return fail(err)
			}
		}
		if err := rep.writeResultLine(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *out == "" {
		*out = filepath.Join(outDir, "report.json")
	}
	correct, err := runAll(stdout, stderr, *seed, *seconds, *out)
	if err != nil {
		return fail(err)
	}
	if !correct {
		return 1
	}
	return 0
}

// outDir is where traces and reports go unless -out says otherwise, relative
// to the working directory (the repository root under `go run ./bench`).
const outDir = "bench/out"

// runAll re-executes this program once per (workload, traced?), one child at
// a time, relays what each prints, and merges their reports into out. It
// reports whether every run was correct and the traced and untraced runs of a
// workload agreed on its result.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	merged := fileReport{Stamp: newStamp()}
	correct := true
	for _, w := range workloads {
		digests := map[string]bool{}
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(filepath.Dir(out), fmt.Sprintf(".%s.%d.json", w.Name, trace))
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", part)
			var printed bytes.Buffer
			cmd.Stdout, cmd.Stderr = &printed, stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
			}
			// Everything but the child's result line, which is for the driver.
			text := bytes.TrimRight(printed.Bytes(), "\n")
			if i := bytes.LastIndexByte(text, '\n'); i >= 0 {
				stdout.Write(text[:i+1])
			}
			fr, err := readFileReport(part)
			if err != nil {
				return false, err
			}
			os.Remove(part)
			for _, r := range fr.Runs {
				correct = correct && r.Correct
				digests[r.ResultDigest] = true
			}
			merged.Runs = append(merged.Runs, fr.Runs...)
		}
		if len(digests) != 1 {
			fmt.Fprintf(stdout, "\n%s: traced and untraced runs produced different result digests\n", w.Name)
			correct = false
		}
	}
	if err := writeJSONFile(out, merged); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", out)
	return correct, nil
}
