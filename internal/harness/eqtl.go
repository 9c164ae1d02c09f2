// The all-pairs eQTL experiment: every SNP crossed with every expression
// phenotype through internal/assoc, measured two ways:
//
//  1. Parity — the broadcast and cartesian join strategies must produce
//     byte-identical WriteReport output at two input shapes.
//  2. Recovery — the cross re-run under task crashes, fetch failures, and a
//     node loss must still match the clean report byte for byte, and two
//     seeded chaos replays must emit byte-identical stripped event logs.

package harness

import (
	"bytes"
	"fmt"
	"io"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/gen"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

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
	reportsMatch := bytes.Equal(clean.report, first.report) && bytes.Equal(first.report, second.report)
	replayStable := first.stripped == second.stripped
	ct := metrics.NewTable(
		"Chaos: cartesian cross, crash/fetch 10% + node 0 lost after 5 tasks",
		"run", "cross (sim-s)", "retries", "recomputed", "report vs clean", "stripped log")
	ct.AddRow("clean", metrics.FormatSeconds(clean.simSeconds), "0", "0", "baseline", "")
	ct.AddRow("chaos", metrics.FormatSeconds(first.simSeconds),
		fmt.Sprint(first.recovery.TaskRetries), fmt.Sprint(first.recovery.RecomputedPartitions),
		map[bool]string{true: "identical", false: "DIVERGED"}[reportsMatch],
		map[bool]string{true: "replay-stable", false: "UNSTABLE"}[replayStable])
	ct.Fprint(w)

	if !reportsMatch {
		return fmt.Errorf("eqtl: chaos report diverged from the clean run")
	}
	if first.recovery.TaskRetries+first.recovery.RecomputedPartitions == 0 {
		return fmt.Errorf("eqtl: chaos profile injected no faults (0 retries, 0 recomputed partitions) — the recovery claim is vacuous")
	}
	if !replayStable {
		return fmt.Errorf("eqtl: stripped event logs differ across seeded chaos replays")
	}
	return nil
}
