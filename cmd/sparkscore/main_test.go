// CLI contracts no package-level test can reach, driven through the real
// binaries: flag sets that must not change a report, and the -events log that
// sparkui must be able to render. Binaries and outputs live in t.TempDir().

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparkscore/internal/core"
	"sparkscore/internal/data"
)

// buildCmd compiles ../<name> into dir and returns the binary's path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "../"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build ../%s: %v\n%s", name, err, out)
	}
	return bin
}

func TestReportsIdenticalAcrossFlagSets(t *testing.T) {
	dir := t.TempDir()
	sparkscore, sparkui := buildCmd(t, dir, "sparkscore"), buildCmd(t, dir, "sparkui")
	run := func(bin string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		return string(out)
	}

	type variant struct {
		args   string
		stdout string // what the run must print, if anything in particular
	}
	groups := []struct {
		name     string
		shape    string    // arguments every variant shares
		variants []variant // each must write the same -out report, byte for byte
	}{
		{"skat", "-generate -patients 60 -snps 300 -sets 6 -iterations 10", []variant{
			{},
			// A pool below the shuffle working set — one map task's
			// 6 sets × (16 + 8·10) B of batched partial sums: the sort
			// shuffle must spill, and say so, without changing a digit.
			{args: "-mem-cap-bytes 512 -workers 1", stdout: "shuffle spills:"},
		}},
		{"eqtl", "-eqtl -generate -patients 80 -snps 400 -sets 8 -eqtl-phenos 12", []variant{
			{},
			{args: "-chaos"},
			{args: "-chaos -nodes 2 -workers 1"},
		}},
	}
	for _, g := range groups {
		var baseline []byte
		for i, v := range g.variants {
			report := filepath.Join(dir, fmt.Sprintf("%s-%d.tsv", g.name, i))
			args := append(strings.Fields(g.shape+" "+v.args), "-out", report)
			if out := run(sparkscore, args...); !strings.Contains(out, v.stdout) {
				t.Errorf("%s %q: output lacks %q:\n%s", g.name, v.args, v.stdout, out)
			}
			got, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				baseline = got
			} else if !bytes.Equal(got, baseline) {
				t.Errorf("%s %q: report differs from the plain run's:\n%s\nwant:\n%s", g.name, v.args, got, baseline)
			}
		}
	}

	// The event log round trip: what sparkscore -events wrote, sparkui -log
	// must parse back into the same number of jobs.
	events := filepath.Join(dir, "events.jsonl")
	out := run(sparkscore, append(strings.Fields(groups[0].shape), "-events", events)...)
	var jobs int
	if i := strings.Index(out, " s over "); i < 0 {
		t.Fatalf("sparkscore printed no cluster accounting:\n%s", out)
	} else if _, err := fmt.Sscanf(out[i:], " s over %d jobs", &jobs); err != nil {
		t.Fatalf("parsing sparkscore's cluster accounting: %v\n%s", err, out)
	}
	if ui, want := run(sparkui, "-log", events), fmt.Sprintf(" %d jobs,", jobs); !strings.Contains(ui, want) {
		t.Errorf("sparkui did not rebuild%s from the event log:\n%s", strings.TrimSuffix(want, ","), ui)
	}
}

// TestDeletedFlagsStayDeleted: the online tuner's switches, the eQTL join
// strategy, adaptive planning and the live timeline writers (a timeline is
// sparkui -trace's rendering of an -events log) are gone from the binaries
// that carried them, not hidden — the flag package refuses them.
func TestDeletedFlagsStayDeleted(t *testing.T) {
	dir := t.TempDir()
	for cmd, flags := range map[string][]string{
		"sparkserved": {"-autotune", "-adaptive"},
		"sparktune":   {"-online", "-batches=8"},
		"sparkscore":  {"-eqtl-strategy=cartesian", "-adaptive", "-trace x"},
		"benchtab":    {"-trace x"},
	} {
		bin := buildCmd(t, dir, cmd)
		for _, flag := range flags {
			out, err := exec.Command(bin, strings.Fields(flag)...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
				t.Errorf("%s %s: err = %v, want exit status 2 with \"flag provided but not defined\":\n%s", cmd, flag, err, out)
			}
		}
	}
}

// TestNegativeTopRejected: a negative row count, phenotype count or memory
// cap is refused after flag parsing with the usual one-line error — in every
// mode that prints a table, where -top used to reach rows[:top] and panic;
// with -eqtl, where a negative phenotype count panicked in makeslice; and
// where a negative value used to mean "off" without saying so. An -eqtl-top
// below 1 is refused too: a top-K of 0 used to keep the default 100 pairs.
func TestNegativeTopRejected(t *testing.T) {
	dir := t.TempDir()
	bins := map[string]string{"sparkscore": buildCmd(t, dir, "sparkscore"), "sparkserved": buildCmd(t, dir, "sparkserved")}
	const shape = "-generate -patients 20 -snps 40 -sets 2"
	for _, tc := range []struct{ cmd, args, want string }{
		{"sparkscore", "-iterations 2 -top -1", "must be non-negative"},
		{"sparkscore", "-iterations 2 -asymptotic -marginal -top -3", "must be non-negative"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -top -1", "must be non-negative"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -eqtl-top -1", "-eqtl-top -1: must be at least 1"},
		// assoc.Config reads a top-K of 0 as its default of 100 pairs.
		{"sparkscore", "-eqtl -eqtl-phenos 2 -eqtl-top 0", "-eqtl-top 0: must be at least 1"},
		{"sparkscore", "-eqtl -eqtl-phenos -2", "must be at least 1"},
		{"sparkscore", "-eqtl -eqtl-phenos 0", "must be at least 1"},
		{"sparkscore", "-iterations 2 -mem-cap-bytes -5", "must be non-negative"},
		// A sparkserved that accepted its flags would serve until killed.
		{"sparkserved", "-addr 127.0.0.1:0 -eqtl-phenos -2", "must be non-negative"},
		{"sparkserved", "-addr 127.0.0.1:0 -eqtl-phenos 2 -eqtl-top 0", "-eqtl-top 0: must be at least 1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, bins[tc.cmd], strings.Fields(shape+" "+tc.args)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "panic") {
			t.Errorf("%s %s: err = %v, want exit status 1 with %q:\n%s", tc.cmd, tc.args, err, tc.want, out)
		}
	}
}

// TestPrintResultBreaksTiesBySetIndex: Monte Carlo p-values (c+1)/(B+1) tie
// often, and which tied sets make -top must be the lowest-indexed ones, in
// index order — not whatever order the sort leaves them in. Forty sets, so
// the sort is past its small-slice insertion path.
func TestPrintResultBreaksTiesBySetIndex(t *testing.T) {
	const sets = 40
	res := &core.Result{Iterations: 9, Sets: make(data.SNPSets, sets), Observed: make([]float64, sets), PValues: make([]float64, sets)}
	for k := range sets {
		res.Sets[k].Name = fmt.Sprintf("set%02d", k)
		res.PValues[k] = float64(1+k%3) / 10 // three p-values, each shared by 13 or 14 sets
	}
	var buf bytes.Buffer
	printResult(&buf, res, 20)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "set") {
			got = append(got, name)
		}
	}
	var want []string
	for r := range 3 {
		for k := r; k < sets && len(want) < 20; k += 3 {
			want = append(want, fmt.Sprintf("set%02d", k))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("top 20 = %v, want %v", got, want)
	}
}
