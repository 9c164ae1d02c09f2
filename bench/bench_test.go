package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// tiny are the committed workloads at shapes that run in well under a second.
// No fault injection anywhere, so the runs do not depend on the host's core
// count.
var tiny = map[string]shape{
	"eqtl_wide":   {Patients: 200, SNPs: 600, Phenos: 8, Planted: 2},
	"mc_cached":   {Patients: 60, SNPs: 600, Sets: 6, Iterations: 6},
	"perm_scan":   {Patients: 60, SNPs: 600, Sets: 6, Iterations: 3},
	"serve_mixed": {Patients: 60, SNPs: 600, Sets: 6, Phenos: 4, Warmup: 20, Segment: 20},
}

func tinyRun(t *testing.T, name string, seed uint64, traced bool) *runReport {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.Shape = tiny[name]
	var log bytes.Buffer
	rep, err := w.run(w, runOptions{seed: seed, seconds: 0.05, traced: traced, traceDir: t.TempDir(), log: &log})
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d checks=%+v", name, rep.Correct, rep.Failed, rep.Attempted, rep.Checks)
	}
	return rep
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from manifest.go:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from manifest.go")
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, manifest.go says %d", m.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in inputs.go (or their why differs)", i, w.Name, workloads[i].Name)
		}
	}
}

func TestManifestLimits(t *testing.T) {
	m := readManifest(t)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	setup, largest := 0.0, 0.0
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Bound
			if d.Unit != "s" || d.Better != lower {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s must be declared with the largest bound (has %g, largest %g)", setup, largest)
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound != 0 {
			t.Errorf("%s: unit %q better %q bound %g", d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestRunsEmitDeclaredMetrics runs every workload at a tiny shape, untraced
// once and traced twice, and checks what the driver and later sessions rely
// on: exactly the declared metrics come out, end-to-end ones are never 0,
// results are verified, and counts and digests are functions of the seed.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := tinyRun(t, w.Name, 1, false)
			if len(plain.Metrics) != len(m.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, %d declared", len(plain.Metrics), len(m.EndToEnd))
			}
			for _, d := range m.EndToEnd {
				v, ok := plain.Metrics[d.Name]
				// A tiny pass can finish inside one tick of the kernel's CPU
				// accounting; at the committed shapes a pass burns seconds.
				positive := v.Value > 0 || (d.Name == "cpu_us_per_op" && v.Value == 0)
				if !ok || v.Unit != d.Unit || !positive {
					t.Errorf("end-to-end %s: emitted %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
				}
				if len(plain.Samples[d.Name]) == 0 {
					t.Errorf("end-to-end %s has no raw samples for -compare", d.Name)
				}
			}

			traced, again := tinyRun(t, w.Name, 1, true), tinyRun(t, w.Name, 1, true)
			if len(traced.Metrics) != len(m.PerLayer) {
				t.Errorf("traced run emitted %d metrics, %d declared", len(traced.Metrics), len(m.PerLayer))
			}
			for _, d := range m.PerLayer {
				if v, ok := traced.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("per-layer %s: emitted %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(traced.Counts) == 0 || !reflect.DeepEqual(traced.Counts, again.Counts) {
				t.Errorf("counts differ between two runs of seed 1:\n%v\n%v", traced.Counts, again.Counts)
			}
			if traced.ResultDigest == "" || traced.ResultDigest != again.ResultDigest || traced.ResultDigest != plain.ResultDigest {
				t.Errorf("result digests differ: untraced %s, traced %s and %s", plain.ResultDigest, traced.ResultDigest, again.ResultDigest)
			}
			if traced.InputDigest != plain.InputDigest {
				t.Errorf("one seed gave two input digests")
			}

			var line bytes.Buffer
			if err := traced.writeResultLine(&line); err != nil {
				t.Fatal(err)
			}
			var decoded map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &decoded); err != nil || len(decoded) != 4 {
				t.Errorf("result line is not one object with four keys: %v %s", err, line.String())
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	sh := tiny["serve_mixed"]
	a, err := makeInputs(sh, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(sh, 1)
	c, _ := makeInputs(sh, 2)
	if a.digest != b.digest {
		t.Errorf("seed 1 gave two input digests")
	}
	if a.digest == c.digest {
		t.Errorf("seeds 1 and 2 gave the same input digest")
	}
}

func TestTraceFileIsWritten(t *testing.T) {
	w, _ := findWorkload("mc_cached")
	w.Shape = tiny[w.Name]
	dir := t.TempDir()
	var log bytes.Buffer
	if _, err := w.run(w, runOptions{seed: 1, seconds: 0.05, traced: true, traceDir: dir, log: &log}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "mc_cached.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	ids := map[float64]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		names[ev.Name]++
		ids[ev.Args["id"].(float64)] = true
	}
	if names["pass"] == 0 || names["task"] == 0 {
		t.Errorf("trace lacks pass or task spans: %v", names)
	}
	for _, ev := range trace.TraceEvents {
		if p, _ := ev.Args["parent"].(float64); ev.Ph == "X" && p != 0 && !ids[p] {
			t.Fatalf("span %q names parent %v, which is not in the trace", ev.Name, p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	report := func(scale float64) fileReport {
		run := runReport{Workload: "mc_cached", Samples: map[string][]float64{}}
		for _, d := range endToEnd {
			xs := []float64{100, 101, 99, 100.5, 99.5}
			if d.Name == "ops_per_s" {
				for i := range xs {
					xs[i] *= scale
				}
			}
			run.Samples[d.Name] = xs
		}
		return fileReport{Runs: []runReport{run}}
	}
	dir := t.TempDir()
	write := func(name string, fr fileReport) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, fr); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A slowdown comfortably past the declared bound, whatever it is tuned to.
	var opsBound float64
	for _, d := range endToEnd {
		if d.Name == "ops_per_s" {
			opsBound = d.Bound
		}
	}
	base, same, slow := write("a.json", report(1)), write("b.json", report(1)), write("c.json", report(1-opsBound-0.05))

	var out bytes.Buffer
	if regressed, err := compareReports(&out, base, same); err != nil || regressed {
		t.Errorf("identical reports: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if bytes.Contains(out.Bytes(), []byte(verdictRegressed)) || bytes.Contains(out.Bytes(), []byte(verdictUnresolved)) {
		t.Errorf("identical reports must be ok throughout:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareReports(&out, base, slow); err != nil || !regressed {
		t.Errorf("a slowdown past the bound must regress: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if code := run([]string{"-compare", base, slow}, &out, &out); code == 0 {
		t.Errorf("bench -compare must exit non-zero on a regression")
	}

	noisy := []float64{60, 100, 140, 80, 120}
	if verdict, _ := judge(endToEnd[1], noisy, noisy); verdict != verdictUnresolved {
		t.Errorf("a spread wider than the bound is %s, want %s", verdict, verdictUnresolved)
	}
}
