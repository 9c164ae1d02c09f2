// CLI contracts no package-level test can reach, driven through the real
// binaries: flag sets that must not change a report, and the -events log that
// sparkui must be able to render. Binaries and outputs live in t.TempDir().

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparkscore/internal/cluster"
	"sparkscore/internal/core"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/server"
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
// cap is refused after flag parsing with the usual one-line error and nothing
// else printed — in every mode that prints a table, where -top used to reach
// rows[:top] and panic; with -eqtl, where a negative phenotype count panicked
// in makeslice; and where a negative value used to mean "off" without saying
// so. An -eqtl-top below 1 is refused too: a top-K of 0 used to keep the
// default 100 pairs. So is an unknown -method, in every mode: it used to fail
// only after the banner, generation and staging, and -eqtl ignored it. And
// -eqtl refuses each flag it does not read once it is set, whatever its value,
// as the SKAT pipeline refuses -eqtl-phenos and -eqtl-top and sparkserved
// refuses -eqtl-top without the /v1/eqtl endpoint.
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
		{"sparkscore", "-iterations 2 -method foo", `-method "foo": must be "mc" or "perm"`},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -method foo", `-method "foo": must be "mc" or "perm"`},
		// -eqtl reads none of these: it used to run and ignore them.
		{"sparkscore", "-eqtl -eqtl-phenos 2 -method mc", "-method: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -iterations 7", "-iterations: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -family binomial", "-family: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -no-cache", "-no-cache: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -set-stat burden", "-set-stat: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -beta-weights", "-beta-weights: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -marginal", "-marginal: not read with -eqtl"},
		{"sparkscore", "-eqtl -eqtl-phenos 2 -asymptotic=false", "-asymptotic: not read with -eqtl"},
		// The SKAT pipeline reads neither eQTL flag: it used to run and
		// ignore them.
		{"sparkscore", "-iterations 2 -eqtl-phenos 7", "-eqtl-phenos: read only with -eqtl"},
		{"sparkscore", "-iterations 2 -eqtl-top 3", "-eqtl-top: read only with -eqtl"},
		{"sparkscore", "-iterations 2 -eqtl-phenos 7 -eqtl-top 3", "read only with -eqtl"},
		{"sparkscore", "-iterations 2 -eqtl-phenos 32 -eqtl-top 100", "read only with -eqtl"},
		// A sparkserved that accepted its flags would serve until killed.
		{"sparkserved", "-addr 127.0.0.1:0 -eqtl-phenos -2", "must be non-negative"},
		{"sparkserved", "-addr 127.0.0.1:0 -eqtl-phenos 2 -eqtl-top 0", "-eqtl-top 0: must be at least 1"},
		{"sparkserved", "-addr 127.0.0.1:0 -eqtl-top 3", "-eqtl-top: read only with -eqtl-phenos above 0"},
		{"sparkserved", "-addr 127.0.0.1:0 -eqtl-phenos 0 -eqtl-top 100", "-eqtl-top: read only with -eqtl-phenos above 0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, bins[tc.cmd], strings.Fields(shape+" "+tc.args)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) || strings.Count(string(out), "\n") != 1 || strings.Contains(string(out), "panic") {
			t.Errorf("%s %s: err = %v, want exit status 1 with %q alone:\n%s", tc.cmd, tc.args, err, tc.want, out)
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

// TestFlagSurface: every flag of sparkscore and sparkserved keeps its name,
// type and default, and the dataset, cluster and analysis flags the two
// share have one usage line, as they have one declaration (internal/job).
// -eqtl-phenos is in both but not shared: its default and meaning differ.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"sparkscore": `-asymptotic | 
-beta-weights | 
-chaos | 
-cores int | 4
-dir string | 
-eqtl | 
-eqtl-phenos int | 32
-eqtl-top int | 100
-events string | 
-executors-per-node int | 2
-family string | "cox"
-generate | 
-iterations int | 1000
-marginal | 
-mem float | 10
-mem-cap-bytes int | 
-method string | "mc"
-no-cache | 
-nodes int | 6
-out string | 
-patients int | 1000
-progress | 
-seed uint | 1
-set-stat string | "skat"
-sets int | 100
-snps int | 10000
-top int | 10
-workers int | `,
		"sparkserved": `-addr string | "127.0.0.1:8080"
-cores int | 4
-dir string | 
-drain-timeout duration | 30s
-eqtl-phenos int | 
-eqtl-top int | 100
-executors-per-node int | 2
-family string | "cox"
-generate | 
-mem float | 10
-mode string | "fair"
-nodes int | 6
-patients int | 1000
-pools string | 
-seed uint | 1
-set-stat string | "skat"
-sets int | 100
-snps int | 10000
-warm | true`,
	}
	shared := []string{"dir", "generate", "patients", "snps", "sets", "seed", "family", "set-stat",
		"nodes", "executors-per-node", "cores", "mem", "eqtl-top"}

	dir := t.TempDir()
	usages := map[string]map[string]string{}
	for cmd, want := range want {
		out, err := exec.Command(buildCmd(t, dir, cmd), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", cmd, err, out)
		}
		// flag.PrintDefaults: "  -name type" then "    \tusage (default d)",
		// the suffix left out for a zero default.
		var got []string
		usages[cmd] = map[string]string{}
		lines := strings.Split(string(out), "\n")
		for i := 1; i+1 < len(lines); i += 2 {
			usage, ok := strings.CutPrefix(lines[i+1], "    \t")
			if !strings.HasPrefix(lines[i], "  -") || !ok {
				t.Fatalf("%s -h: line %d is not a flag's two lines:\n%s", cmd, i+1, out)
			}
			head := strings.TrimSpace(lines[i])
			def := ""
			if j := strings.LastIndex(usage, " (default "); j >= 0 && strings.HasSuffix(usage, ")") {
				usage, def = usage[:j], usage[j+len(" (default "):len(usage)-1]
			}
			got = append(got, head+" | "+def)
			name, _, _ := strings.Cut(head[1:], " ")
			usages[cmd][name] = usage
		}
		if g := strings.Join(got, "\n"); g != want {
			t.Errorf("%s -h: flags and defaults\n%s\nwant\n%s", cmd, g, want)
		}
	}
	for _, name := range shared {
		if a, b := usages["sparkscore"][name], usages["sparkserved"][name]; a == "" || a != b {
			t.Errorf("-%s: sparkscore's usage %q, sparkserved's %q; want one, the same", name, a, b)
		}
	}
}

// TestAsymptoticTiesRankAlikeInCLIAndServer: two SNP-sets with the same
// members have the same asymptotic p-value, and sparkscore -asymptotic and
// /v1/skat list them in one order, by set index as the resampling table
// does: set2 before set10, which name order would swap.
func TestAsymptoticTiesRankAlikeInCLIAndServer(t *testing.T) {
	ds, err := gen.Generate(gen.Config{Patients: 200, SNPs: 600, SNPSets: 12}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds.SNPSets[10].SNPs = ds.SNPSets[2].SNPs
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "ds")
	if err := os.Mkdir(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := data.WriteDataset(ds, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dsDir, name))
	}); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(buildCmd(t, dir, "sparkscore"), "-dir", dsDir, "-iterations", "0", "-asymptotic", "-top", "12").CombinedOutput()
	if err != nil {
		t.Fatalf("sparkscore: %v\n%s", err, out)
	}
	_, table, ok := strings.Cut(string(out), "by asymptotic (Liu) test:\n")
	if !ok {
		t.Fatalf("sparkscore printed no asymptotic table:\n%s", out)
	}
	var cli []string
	for _, line := range strings.Split(table, "\n")[1:] {
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "set") {
			cli = append(cli, name)
		}
	}

	read, err := data.ReadDataset(os.DirFS(dsDir))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.New(rdd.Config{Cluster: cluster.Config{Nodes: 2, Spec: cluster.M3TwoXLarge}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := core.StageDataset(ctx, read, "input")
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := core.NewAnalysis(ctx, paths, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Context: ctx, Analysis: analysis})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/skat", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Result struct {
			Sets []server.SKATRow `json:"sets"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var served []string
	p := map[string]float64{}
	for _, r := range body.Result.Sets {
		served = append(served, r.Name)
		p[r.Name] = r.PValue
	}

	if p["set2"] != p["set10"] || p["set2"] == 0 {
		t.Fatalf("set2 and set10 do not tie: p = %v, %v", p["set2"], p["set10"])
	}
	if c, s := strings.Join(cli, " "), strings.Join(served, " "); c != s || !strings.Contains(s, "set2 set10") {
		t.Errorf("sparkscore -asymptotic lists\n  %s\n/v1/skat lists\n  %s\nwant one order, set2 before set10", c, s)
	}
}
