// What one run reports: the contract's result line for the driver, and the
// fuller report (-out) with the reproducibility stamp, raw samples and check
// outcomes that -compare and people read.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp says where and from what a report was produced.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newStamp() stamp {
	commit := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is the outcome of one correctness check.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// runReport is everything one (workload, traced?) run measured.
type runReport struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Shape    shape   `json:"shape"`
	Op       string  `json:"op"`

	// Passes counts timed passes (timed segments on serve_mixed), Setups how
	// many times set-up ran for setup_s.
	Passes int `json:"passes"`
	Setups int `json:"setups"`

	InputDigest  string `json:"input_digest"`
	ResultDigest string `json:"result_digest"`

	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	Checks    []check `json:"checks"`

	Metrics map[string]metricValue `json:"metrics"`
	// Samples holds the raw per-pass values behind each end-to-end metric,
	// which -compare pools for its quartiles.
	Samples map[string][]float64 `json:"samples,omitempty"`

	// Counts are the values that must repeat exactly for a seed: engine
	// counters per pass and, on serve_mixed, request counters.
	Counts map[string]float64 `json:"counts,omitempty"`
}

func newRunReport(w workload, o runOptions) *runReport {
	return &runReport{Workload: w.Name, Traced: o.traced, Seed: o.seed, Seconds: o.seconds, Shape: w.Shape, Op: w.Op}
}

// addCheck records a check; a failed one makes the run incorrect.
func (r *runReport) addCheck(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Note = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// finish derives the verdict and attaches units. Any failed check fails every
// attempted operation: a run whose results cannot be trusted measured nothing.
func (r *runReport) finish(values metricSet) error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !r.Traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if unitOf(defs, name) == "" {
			return fmt.Errorf("%s: metric %s is not declared in manifest.go", r.Workload, name)
		}
	}
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed = r.Attempted
		}
	}
	r.Correct = r.Failed == 0
	return nil
}

// resultLine is the one JSON object the driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runReport) writeResultLine(w io.Writer) error {
	raw, err := json.Marshal(resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// print writes the run's metrics by name with their units, then its checks.
func (r *runReport) print(w io.Writer) {
	defs, mode := endToEnd, "untraced"
	if r.Traced {
		defs, mode = perLayer, "traced"
	}
	fmt.Fprintf(w, "\n%s (%s, seed %d): %d passes, op = one %s\n", r.Workload, mode, r.Seed, r.Passes, r.Op)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Note
		}
		fmt.Fprintf(w, "  check %-50s %s\n", c.Name, status)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  failed_share = %g (%d of %d ops)\n", share, r.Failed, r.Attempted)
}

// fileReport is the -out file: one stamp and every run made.
type fileReport struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runReport `json:"runs"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readFileReport(path string) (*fileReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fr fileReport
	if err := json.Unmarshal(raw, &fr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &fr, nil
}
