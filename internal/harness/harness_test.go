package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparkscore/internal/rdd"
	"sparkscore/internal/replaytest"
)

// tiny returns a harness whose scale makes every experiment near-trivial, so
// the registry can be exercised end-to-end in unit tests.
func tiny() *Harness {
	return &Harness{Scale: 10000, MaxIterations: 4, Seed: 5}
}

func TestMeasureBasic(t *testing.T) {
	h := tiny()
	p := tunedContainers(Params{
		Patients: 50, SNPs: 100000, SNPSets: 10, Nodes: 2,
		Method: "mc", Cache: true, Iterations: 2,
	})
	v, err := h.Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("virtual seconds = %v", v)
	}
}

func TestMeasureUnknownMethod(t *testing.T) {
	h := tiny()
	p := tunedContainers(Params{Patients: 10, SNPs: 100, SNPSets: 2, Nodes: 1, Method: "bogus"})
	if _, err := h.Measure(p); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestSweepHonoursCap(t *testing.T) {
	h := tiny()
	h.MaxIterations = 3
	p := tunedContainers(Params{
		Patients: 20, SNPs: 100, SNPSets: 2, Nodes: 1, Method: "mc", Cache: true,
	})
	out, err := h.sweep(p, []int{0, 2, 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out[100]; ok {
		t.Fatal("capped point measured")
	}
	if _, ok := out[2]; !ok {
		t.Fatal("uncapped point missing")
	}
}

func TestDatasetMemoised(t *testing.T) {
	h := tiny()
	p := Params{Patients: 20, SNPs: 100000, SNPSets: 5}
	a, err := h.dataset(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.dataset(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset regenerated for identical key")
	}
}

func TestScalingPreservesAvgSNPsPerSet(t *testing.T) {
	h := &Harness{Scale: 100}
	p := Params{SNPs: 100000, SNPSets: 1000} // paper's Experiment A: avg 100/set
	snps, sets := h.scaledSNPs(p), h.scaledSets(p)
	if snps != 1000 || sets != 10 {
		t.Fatalf("scaled to %d SNPs / %d sets, want 1000/10", snps, sets)
	}
	if snps/sets != p.SNPs/p.SNPSets {
		t.Fatalf("avg SNPs/set changed: %d, want %d", snps/sets, p.SNPs/p.SNPSets)
	}
}

func TestScaledSetsFloorsAtOne(t *testing.T) {
	h := &Harness{Scale: 10000}
	p := Params{SNPs: 10000, SNPSets: 500}
	if got := h.scaledSets(p); got != 1 {
		t.Fatalf("scaledSets = %d, want 1", got)
	}
	if got := h.scaledSNPs(p); got != 1 {
		t.Fatalf("scaledSNPs = %d, want 1", got)
	}
}

func TestRegistryCoversEveryArtifact(t *testing.T) {
	for _, id := range []string{
		"tab1", "fig2", "tab2", "tab3", "fig3", "fig4", "tab4", "tab5",
		"fig5", "fig6", "tab6", "fig7", "tab7", "tab8",
	} {
		if _, ok := Resolve(id); !ok {
			t.Errorf("artifact %s not resolvable", id)
		}
	}
	if e, _ := Resolve("tab8"); e.ID != "fig7" {
		t.Errorf("alias tab8 resolved to %q, want fig7", e.ID)
	}
	for _, id := range []string{"fig99", "columnar"} {
		if _, ok := Resolve(id); ok {
			t.Errorf("unknown artifact %s resolved", id)
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	want := "tab1 fig2 fig3 fig4 fig5 fig6 fig7 chaos"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("experiments = %q, want %q", got, want)
	}
}

func TestTab1Runs(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("tab1")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "m3.2xlarge") {
		t.Fatalf("tab1 output:\n%s", buf.String())
	}
}

func TestFig2RunsAtTinyScale(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("fig2")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "Figure 2", "Table III", "monte-carlo", "permutation", "skipped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6RunsAtTinyScale(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("fig6")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table VI", "6-nodes", "12-nodes", "18-nodes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7RunsAtTinyScale(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("fig7")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"42-containers", "84-containers", "126-containers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestCacheBeatsNoCacheInVirtualTime(t *testing.T) {
	// The headline of Experiment B must hold at any scale: cached Monte
	// Carlo is faster than uncached at equal iterations. What caching saves
	// is one genotype scan per resampling job, and a job is 64 replicates
	// (core's batch), so the ten jobs this compared at 10 iterations, when a
	// replicate was a job, are 640 iterations.
	h := &Harness{Scale: 2000, Seed: 3}
	base := tunedContainers(Params{
		Patients: 200, SNPs: 1000000, SNPSets: 20, Nodes: 2,
		Method: "mc", Iterations: 10 * 64,
	})
	cached := base
	cached.Cache = true
	uncached := base
	uncached.Cache = false
	tc, err := h.Measure(cached)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := h.Measure(uncached)
	if err != nil {
		t.Fatal(err)
	}
	if tc >= tn {
		t.Fatalf("cached %.3f >= uncached %.3f sim-s", tc, tn)
	}
}

func TestMonteCarloBeatsPermutation(t *testing.T) {
	// The headline of Experiment A: at equal iterations MC is faster.
	h := &Harness{Scale: 2000, Seed: 3}
	base := tunedContainers(Params{
		Patients: 200, SNPs: 1000000, SNPSets: 20, Nodes: 2,
		Cache: true, Iterations: 8,
	})
	mc := base
	mc.Method = "mc"
	perm := base
	perm.Method = "perm"
	tm, err := h.Measure(mc)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := h.Measure(perm)
	if err != nil {
		t.Fatal(err)
	}
	if tm >= tp {
		t.Fatalf("monte carlo %.3f >= permutation %.3f sim-s", tm, tp)
	}
}

func TestFig3RunsAtTinyScale(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("fig3")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skipped") {
		// With MaxIterations 4 the 1000- and 100-iteration configs skip.
		t.Fatalf("fig3 output did not honour the iteration cap:\n%s", buf.String())
	}
}

// TestFig3ReturnsMeasureError pins that a failing run surfaces as fig3's
// error like every other experiment's, not as a panic out of the sample loop.
func TestFig3ReturnsMeasureError(t *testing.T) {
	h := tiny()
	h.MaxIterations = 10 // admit the 10-iteration configuration
	h.EventLogDir = filepath.Join(t.TempDir(), "missing")
	e, _ := Resolve("fig3")
	if err := e.Run(h, io.Discard); err == nil {
		t.Fatal("fig3 succeeded though no run could open its event log")
	}
}

func TestFig4RunsAtTinyScale(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("fig4")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "Table V", "with-cache", "without-cache", "N/A"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5RunsAtTinyScale(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Resolve("fig5")
	if err := e.Run(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatalf("fig5 output:\n%s", buf.String())
	}
}

func TestRunAllAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	var buf bytes.Buffer
	if err := RunAll(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		if !strings.Contains(buf.String(), e.Title) {
			t.Fatalf("RunAll output missing %q", e.Title)
		}
	}
}

func TestDiskSpillCuresStrongScalingCollapse(t *testing.T) {
	// Figure 6's 6-node collapse comes from MEMORY_ONLY persistence dropping
	// cached partitions; MEMORY_AND_DISK demotes them to local disk instead,
	// and the iterations become cheap again. This is the tuning insight the
	// paper's future-work section gestures at. Dropped partitions are
	// recomputed once per resampling job, and a job is 64 replicates (core's
	// batch): the threshold below was set for ten jobs after the observed
	// pass, which used to be 10 iterations and is now 640. The six nodes are
	// starved in proportion to the measured working set (StarveCache): at the
	// literal 1 GiB the packed matrix fits and there is no collapse to cure.
	h := &Harness{Scale: 1000, Seed: 3}
	base, err := h.StarveCache(Params{
		Patients: 1000, SNPs: 1000000, SNPSets: 100, Nodes: 6,
		ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 1,
		Method: "mc", Cache: true, Iterations: 10 * 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	memOnly, err := h.Measure(base)
	if err != nil {
		t.Fatal(err)
	}
	spilling := base
	spilling.DiskSpill = true
	memAndDisk, err := h.Measure(spilling)
	if err != nil {
		t.Fatal(err)
	}
	if memAndDisk >= memOnly/2 {
		t.Fatalf("MEMORY_AND_DISK %.2f sim-s not clearly better than MEMORY_ONLY %.2f", memAndDisk, memOnly)
	}
}

func TestMeasureRecovery(t *testing.T) {
	h := tiny()
	p := tunedContainers(Params{
		Patients: 50, SNPs: 100000, SNPSets: 10, Nodes: 3,
		Method: "mc", Cache: true, Iterations: 2,
	})
	faults := rdd.FaultProfile{
		TaskCrashProb:    0.2,
		FetchFailureProb: 0.1,
		NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 5}},
	}
	r, err := h.MeasureRecovery(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResultsMatch {
		t.Fatal("chaos run changed the inference results")
	}
	if r.Stats.TaskRetries == 0 && r.Stats.StageAttempts == 0 {
		t.Fatalf("chaos run recorded no recovery work: %+v", r.Stats)
	}
	if r.Stats.RecoverySeconds <= 0 {
		t.Fatalf("no recovery time charged: %+v", r.Stats)
	}
	again, err := h.MeasureRecovery(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint != again.Fingerprint {
		t.Fatal("identical seed and profile produced different recovery traces")
	}
}

// TestChaosExperimentRuns runs the chaos experiment for its table, then puts
// its configuration through the Workers matrix: the recovery trace, the
// event log, and the results' equality with the fault-free run must not
// depend on host parallelism.
func TestChaosExperimentRuns(t *testing.T) {
	h := tiny()
	e, ok := Resolve("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	var sb strings.Builder
	if err := e.Run(h, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"task retries", "recovery share", "results identical to fault-free  true", "replay reproducible (same seed)  true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}

	replaytest.AcrossWorkers(t, func(workers int) replaytest.Observation {
		var log bytes.Buffer
		elw := rdd.NewEventLogWriter(&log)
		h := tiny()
		h.workers = workers
		h.extraListeners = []rdd.Listener{elw}
		r, err := h.MeasureRecovery(chaosParams(h), chaosFaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := elw.Close(); err != nil {
			t.Fatal(err)
		}
		return replaytest.Observation{
			Result:      fmt.Sprintf("results identical to fault-free: %v", r.ResultsMatch),
			Fingerprint: r.Fingerprint,
			Log:         log.String(),
		}
	})
}

// TestPaperArtifactsMatchGolden regenerates a small-scale cut of the paper's
// tables — what `benchtab -exp all -scale 2000 -max-iters 640` prints above
// its wall-time footer — and compares it byte for byte with
// testdata/paper_scale2000.txt. Every digit there is
// counted work on the virtual clock, so a difference is a changed model,
// input or schedule: look at it, and if it is meant, `make experiments`
// rewrites the file along with experiments_scale100.txt (nothing else does).
func TestPaperArtifactsMatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "paper_scale2000.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunAll(&Harness{Scale: 2000, MaxIterations: 640, Seed: 1}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("paper artifacts drifted from testdata/paper_scale2000.txt:\n%s", replaytest.FirstDiff(got.String(), string(want)))
	}
}
