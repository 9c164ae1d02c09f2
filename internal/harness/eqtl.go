// The all-pairs eQTL experiment: every SNP crossed with every expression
// phenotype through internal/assoc, measured three ways:
//
//  1. Parity — the broadcast and cartesian join strategies must produce
//     byte-identical WriteReport output at two input shapes.
//  2. Recovery — the cross re-run under task crashes, fetch failures, and a
//     node loss must still match the clean report byte for byte, and two
//     seeded chaos replays must emit byte-identical stripped event logs.
//  3. Pair throughput — a real-time microbenchmark of the scoring inner
//     loop (stats.WideKernel: one decode per block row, all phenotypes
//     scored off its non-zero dosages), in ns per (SNP, phenotype) pair.

package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/gen"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
	"sparkscore/internal/stats"
)

// EQTLRun is one engine configuration's measurement at one input shape,
// serialized into the -json snapshot.
type EQTLRun struct {
	Patients   int     `json:"patients"`
	SNPs       int     `json:"snps"`
	Phenos     int     `json:"phenos"`
	Strategy   string  `json:"strategy"`
	Tested     int64   `json:"tested"`
	SimSeconds float64 `json:"simSeconds"`
}

// EQTLChaos is the fault-injection measurement: the clean run versus the
// same cross under the chaos profile, plus replay determinism.
type EQTLChaos struct {
	CleanSimSeconds      float64 `json:"cleanSimSeconds"`
	ChaosSimSeconds      float64 `json:"chaosSimSeconds"`
	TaskRetries          int     `json:"taskRetries"`
	RecomputedPartitions int     `json:"recomputedPartitions"`
	ReportsMatch         bool    `json:"reportsMatch"`
	ReplayStable         bool    `json:"replayStable"`
}

// EQTLPairBench is the real-time microbenchmark of the all-pairs scoring
// inner loop over one full genotype block.
type EQTLPairBench struct {
	Patients      int     `json:"patients"`
	Rows          int     `json:"rows"`
	Phenos        int     `json:"phenos"`
	WideNsPerPair float64 `json:"wideNsPerPair"`
	PairsPerSec   float64 `json:"pairsPerSec"`
}

// eqtlScale fixes the experiment at the paper's 1/100 scale regardless of the
// harness Scale, like the speculation experiment: parity is a property of the
// engine, not of the input size.
const eqtlScale = 100

// eqtlShape is one input shape of the parity sweep.
type eqtlShape struct {
	patients, snps, phenos int
}

// eqtlShapes are the two shapes parity is asserted at: a phenotype-light
// cross and a phenotype-heavy one whose SNP side is partitioned differently.
func eqtlShapes() []eqtlShape {
	return []eqtlShape{
		{patients: 500, snps: 2000, phenos: 16},
		{patients: 250, snps: 4000, phenos: 48},
	}
}

// eqtlFaults is the chaos profile of the recovery measurement: background
// task crashes and fetch failures plus one whole node lost mid-job.
func eqtlFaults() rdd.FaultProfile {
	return rdd.FaultProfile{
		TaskCrashProb:    0.1,
		FetchFailureProb: 0.1,
		NodeLoss:         []rdd.NodeLoss{{Node: 0, AfterTasks: 5}},
	}
}

// runEQTLConfig stages shape's genotype and expression matrices on a fresh
// tuned 6-node cluster, runs the all-pairs cross under cfg and faults, and
// returns the deterministic report, the result, the simulated seconds of the
// cross itself, and the stripped event log of the run.
type eqtlRunOut struct {
	report     []byte
	res        *assoc.Result
	simSeconds float64
	stripped   string
	recovery   rdd.RecoveryStats
}

func (h *Harness) runEQTLConfig(shape eqtlShape, cfg assoc.Config, faults rdd.FaultProfile) (eqtlRunOut, error) {
	ds, err := gen.Generate(gen.Config{Patients: shape.patients, SNPs: shape.snps, SNPSets: 4}, h.Seed)
	if err != nil {
		return eqtlRunOut{}, err
	}
	expr := gen.ExpressionMatrix(gen.Config{Patients: shape.patients}, rng.New(h.Seed+1), shape.phenos)

	var logBuf bytes.Buffer
	elw := rdd.NewEventLogWriter(&logBuf)
	scale := float64(eqtlScale)
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes:             6,
			Spec:              cluster.M3TwoXLarge,
			ExecutorsPerNode:  2,
			CoresPerExecutor:  4,
			MemPerExecutorGiB: 10 / scale,
		},
		DFSBlockSize:     int(float64(128<<20) / scale),
		SchedOverheadSec: 0.004 / scale,
		StageOverheadSec: 0.05 / scale,
		Seed:             h.Seed,
		Faults:           faults,
		Listeners:        []rdd.Listener{elw},
	})
	if err != nil {
		return eqtlRunOut{}, err
	}
	paths, err := assoc.Stage(ctx, ds.Genotypes, expr, "eqtl")
	if err != nil {
		return eqtlRunOut{}, err
	}
	a, err := assoc.NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, cfg)
	if err != nil {
		return eqtlRunOut{}, err
	}
	ctx.ResetClock()
	res, err := a.Run()
	if err != nil {
		return eqtlRunOut{}, err
	}
	out := eqtlRunOut{res: res, simSeconds: ctx.VirtualTime(), recovery: rdd.SummarizeRecovery(ctx.Jobs())}
	var buf bytes.Buffer
	if err := assoc.WriteReport(&buf, res); err != nil {
		return eqtlRunOut{}, err
	}
	out.report = buf.Bytes()
	if err := elw.Close(); err != nil {
		return eqtlRunOut{}, err
	}
	out.stripped, err = stripEventLog(logBuf.Bytes())
	if err != nil {
		return eqtlRunOut{}, err
	}
	return out, nil
}

// stripEventLog re-renders a raw JSONL event log with every measured-time
// field removed (rdd.StripMeasuredTime), the form that is byte-stable across
// seeded replays.
func stripEventLog(raw []byte) (string, error) {
	events, err := rdd.ReadEventLog(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	var sb bytes.Buffer
	for _, ev := range events {
		line, err := rdd.MarshalEvent(rdd.StripMeasuredTime(ev))
		if err != nil {
			return "", err
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// measureEQTLKernel benchmarks the all-pairs scoring inner loop — the wide
// kernel over one full 256-row block of 1000 patients against 64 Gaussian
// phenotypes — best-of-5 in real time.
func measureEQTLKernel(seed uint64) (EQTLPairBench, error) {
	const patients, rows, phenos = 1000, 256, 64
	cfg := gen.Config{Patients: patients, SNPs: rows, SNPSets: 4}
	blk := gen.GenoBlocks(cfg, rng.New(seed), rows)[0]
	expr := gen.ExpressionMatrix(gen.Config{Patients: patients}, rng.New(seed+1), phenos)
	models := make([]stats.Model, expr.Rows())
	for r := range models {
		m, err := stats.NewModel("gaussian", expr.Phenotype(r))
		if err != nil {
			return EQTLPairBench{}, err
		}
		models[r] = m
	}
	kernel, err := stats.NewWideKernel(models)
	if err != nil {
		return EQTLPairBench{}, err
	}

	const inner = 5
	var sink float64
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < inner; i++ {
			kernel.BlockStats(blk, func(_ int32, _ int, score, variance float64) {
				sink += score - variance
			})
		}
		perPair := float64(time.Since(start).Nanoseconds()) / float64(inner*rows*phenos)
		if perPair < best {
			best = perPair
		}
	}
	_ = sink

	b := EQTLPairBench{Patients: patients, Rows: rows, Phenos: phenos, WideNsPerPair: best}
	if best > 0 {
		b.PairsPerSec = 1e9 / best
	}
	return b, nil
}

// runEQTL measures the all-pairs engine and asserts its claims: both join
// strategies byte-identical at both shapes, and chaos recovery byte-identical
// with byte-stable stripped replay logs.
func runEQTL(h *Harness, w io.Writer) error {
	type config struct {
		name string
		cfg  assoc.Config
	}
	configs := []config{
		{"broadcast", assoc.Config{TopK: 50, HistBins: 512}},
		{"cartesian", assoc.Config{TopK: 50, HistBins: 512, Strategy: "cartesian", PhenoBatch: 8}},
	}

	var runs []EQTLRun
	for _, shape := range eqtlShapes() {
		var baseline []byte
		t := metrics.NewTable(
			fmt.Sprintf("All-pairs: %d SNPs x %d phenotypes, %d patients (fixed scale /%d)",
				shape.snps, shape.phenos, shape.patients, eqtlScale),
			"engine", "tested", "cross (sim-s)", "report")
		for _, c := range configs {
			out, err := h.runEQTLConfig(shape, c.cfg, rdd.FaultProfile{})
			if err != nil {
				return fmt.Errorf("eqtl: %s at %dx%d: %w", c.name, shape.snps, shape.phenos, err)
			}
			verdict := "baseline"
			if baseline == nil {
				baseline = out.report
			} else if bytes.Equal(out.report, baseline) {
				verdict = "identical"
			} else {
				verdict = "DIVERGED"
			}
			runs = append(runs, EQTLRun{
				Patients: shape.patients, SNPs: shape.snps, Phenos: shape.phenos,
				Strategy: out.res.Strategy, Tested: out.res.Tested, SimSeconds: out.simSeconds,
			})
			t.AddRow(c.name, fmt.Sprint(out.res.Tested), metrics.FormatSeconds(out.simSeconds), verdict)
			if verdict == "DIVERGED" {
				t.Fprint(w)
				return fmt.Errorf("eqtl: %s report diverged from %s at %d SNPs x %d phenotypes",
					c.name, configs[0].name, shape.snps, shape.phenos)
			}
		}
		t.Fprint(w)
	}

	// Chaos: the phenotype-heavy shape's cartesian cross (the most partitions,
	// so the node loss lands mid-job) under crashes, fetch failures, and a
	// node loss — run twice to pin replay determinism.
	shape := eqtlShapes()[1]
	chaosCfg := configs[1].cfg
	clean, err := h.runEQTLConfig(shape, chaosCfg, rdd.FaultProfile{})
	if err != nil {
		return fmt.Errorf("eqtl: clean chaos baseline: %w", err)
	}
	first, err := h.runEQTLConfig(shape, chaosCfg, eqtlFaults())
	if err != nil {
		return fmt.Errorf("eqtl: chaos run: %w", err)
	}
	second, err := h.runEQTLConfig(shape, chaosCfg, eqtlFaults())
	if err != nil {
		return fmt.Errorf("eqtl: chaos replay: %w", err)
	}
	chaos := EQTLChaos{
		CleanSimSeconds:      clean.simSeconds,
		ChaosSimSeconds:      first.simSeconds,
		TaskRetries:          first.recovery.TaskRetries,
		RecomputedPartitions: first.recovery.RecomputedPartitions,
		ReportsMatch:         bytes.Equal(clean.report, first.report) && bytes.Equal(first.report, second.report),
		ReplayStable:         first.stripped == second.stripped,
	}
	ct := metrics.NewTable(
		"Chaos: cartesian cross, crash/fetch 10% + node 0 lost after 5 tasks",
		"run", "cross (sim-s)", "retries", "recomputed", "report vs clean", "stripped log")
	ct.AddRow("clean", metrics.FormatSeconds(chaos.CleanSimSeconds), "0", "0", "baseline", "")
	ct.AddRow("chaos", metrics.FormatSeconds(chaos.ChaosSimSeconds),
		fmt.Sprint(chaos.TaskRetries), fmt.Sprint(chaos.RecomputedPartitions),
		map[bool]string{true: "identical", false: "DIVERGED"}[chaos.ReportsMatch],
		map[bool]string{true: "replay-stable", false: "UNSTABLE"}[chaos.ReplayStable])
	ct.Fprint(w)

	kernel, err := measureEQTLKernel(h.Seed)
	if err != nil {
		return fmt.Errorf("eqtl: kernel bench: %w", err)
	}
	kt := metrics.NewTable(
		fmt.Sprintf("Pair kernel: %d patients x %d rows x %d phenotypes per block",
			kernel.Patients, kernel.Rows, kernel.Phenos),
		"inner loop", "ns/pair", "pairs/s")
	kt.AddRow("wide multi-phenotype", fmt.Sprintf("%.1f", kernel.WideNsPerPair),
		fmt.Sprintf("%.2fM", kernel.PairsPerSec/1e6))
	kt.Fprint(w)

	if h.EQTLJSON != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"experiment": "eqtl",
			"scale":      eqtlScale,
			"runs":       runs,
			"chaos":      chaos,
			"kernel":     kernel,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(h.EQTLJSON, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", h.EQTLJSON)
	}

	if !chaos.ReportsMatch {
		return fmt.Errorf("eqtl: chaos report diverged from the clean run")
	}
	if chaos.TaskRetries+chaos.RecomputedPartitions == 0 {
		return fmt.Errorf("eqtl: chaos profile injected no faults (0 retries, 0 recomputed partitions) — the recovery claim is vacuous")
	}
	if !chaos.ReplayStable {
		return fmt.Errorf("eqtl: stripped event logs differ across seeded chaos replays")
	}
	return nil
}
