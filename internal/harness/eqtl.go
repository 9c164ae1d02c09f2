// The all-pairs eQTL experiment: every SNP crossed with every expression
// phenotype through internal/assoc, measured two ways:
//
//  1. The cross at two input shapes — simulated seconds, pairs tested, and a
//     digest of the deterministic WriteReport output.
//  2. Recovery — the cross re-run under task crashes and a node lost mid-job
//     must still match the clean report byte for byte, and two seeded chaos
//     replays must emit byte-identical event logs.

package harness

import (
	"bytes"
	"crypto/sha256"
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
// harness Scale: recovery is a property of the engine, not of the input size.
const eqtlScale = 100

// eqtlBlockSize is the DFS block size at eqtlScale; eqtlChaosBlockSize cuts
// the chaos arm's genotype file sixteen times finer, so the cross is a few
// dozen tasks: the 10% crash draw hits some of them and the node loss, due
// after five, takes hold before their retry wave. (At eqtlBlockSize either
// shape is two tasks and the plan never comes due.)
const (
	eqtlBlockSize      = (128 << 20) / eqtlScale
	eqtlChaosBlockSize = eqtlBlockSize / 16
)

// eqtlShape is one input shape of the sweep.
type eqtlShape struct {
	patients, snps, phenos int
}

// eqtlShapes are the two shapes measured: a phenotype-light cross and a
// phenotype-heavy one.
func eqtlShapes() []eqtlShape {
	return []eqtlShape{
		{patients: 500, snps: 2000, phenos: 16},
		{patients: 250, snps: 4000, phenos: 48},
	}
}

// eqtlFaults is the chaos profile of the recovery measurement: background
// task crashes plus one whole node lost mid-job. (The cross has no shuffle,
// so there is no fetch to fail.)
func eqtlFaults() rdd.FaultProfile {
	return rdd.FaultProfile{
		TaskCrashProb: 0.1,
		NodeLoss:      []rdd.NodeLoss{{Node: 0, AfterTasks: 5}},
	}
}

// eqtlRunOut is one run of the cross: the deterministic report, the result,
// the simulated seconds of the cross itself, and the event log.
type eqtlRunOut struct {
	report     []byte
	res        *assoc.Result
	simSeconds float64
	log        string
	recovery   rdd.RecoveryStats
}

// runEQTLCross stages shape's genotype and expression matrices on a fresh
// tuned 6-node cluster in blocks of blockSize bytes and runs the all-pairs
// cross under faults.
func (h *Harness) runEQTLCross(shape eqtlShape, blockSize int, faults rdd.FaultProfile) (eqtlRunOut, error) {
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
		DFSBlockSize:     blockSize,
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
	a, err := assoc.NewAnalysis(ctx, paths.Genotypes, paths.Phenotypes, assoc.Config{TopK: 50, HistBins: 512})
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
	out.log = logBuf.String()
	return out, nil
}

// runEQTL measures the all-pairs engine and asserts its claim: chaos recovery
// byte-identical to the clean run, with byte-stable replay logs.
func runEQTL(h *Harness, w io.Writer) error {
	t := metrics.NewTable(
		fmt.Sprintf("All-pairs cross (fixed scale /%d)", eqtlScale),
		"SNPs", "phenotypes", "patients", "tested", "cross (sim-s)", "report digest")
	for _, shape := range eqtlShapes() {
		out, err := h.runEQTLCross(shape, eqtlBlockSize, rdd.FaultProfile{})
		if err != nil {
			return fmt.Errorf("eqtl: %d SNPs x %d phenotypes: %w", shape.snps, shape.phenos, err)
		}
		t.AddRow(fmt.Sprint(shape.snps), fmt.Sprint(shape.phenos), fmt.Sprint(shape.patients),
			fmt.Sprint(out.res.Tested), metrics.FormatSeconds(out.simSeconds),
			fmt.Sprintf("%.6x", sha256.Sum256(out.report)))
	}
	t.Fprint(w)

	// Chaos: the phenotype-heavy shape, cut fine, under crashes and a node
	// loss — run twice to pin replay determinism.
	shape := eqtlShapes()[1]
	clean, err := h.runEQTLCross(shape, eqtlChaosBlockSize, rdd.FaultProfile{})
	if err != nil {
		return fmt.Errorf("eqtl: clean chaos baseline: %w", err)
	}
	first, err := h.runEQTLCross(shape, eqtlChaosBlockSize, eqtlFaults())
	if err != nil {
		return fmt.Errorf("eqtl: chaos run: %w", err)
	}
	second, err := h.runEQTLCross(shape, eqtlChaosBlockSize, eqtlFaults())
	if err != nil {
		return fmt.Errorf("eqtl: chaos replay: %w", err)
	}
	reportsMatch := bytes.Equal(clean.report, first.report) && bytes.Equal(first.report, second.report)
	replayStable := first.log == second.log
	ct := metrics.NewTable(
		fmt.Sprintf("Chaos: the %d x %d cross in %d partitions, crash 10%% + node 0 lost after 5 tasks",
			shape.snps, shape.phenos, clean.res.SNPBlocks),
		"run", "cross (sim-s)", "retries", "report vs clean", "event log")
	ct.AddRow("clean", metrics.FormatSeconds(clean.simSeconds), "0", "baseline", "")
	ct.AddRow("chaos", metrics.FormatSeconds(first.simSeconds), fmt.Sprint(first.recovery.TaskRetries),
		map[bool]string{true: "identical", false: "DIVERGED"}[reportsMatch],
		map[bool]string{true: "replay-stable", false: "UNSTABLE"}[replayStable])
	ct.Fprint(w)

	if clean.res.SNPBlocks < 8 {
		return fmt.Errorf("eqtl: the chaos arm ran %d genotype partitions, want at least 8 for the node loss to land mid-job", clean.res.SNPBlocks)
	}
	if !reportsMatch {
		return fmt.Errorf("eqtl: chaos report diverged from the clean run")
	}
	if first.recovery.TaskRetries == 0 {
		return fmt.Errorf("eqtl: chaos profile injected no faults (0 retries) — the recovery claim is vacuous")
	}
	if !replayStable {
		return fmt.Errorf("eqtl: event logs differ across seeded chaos replays")
	}
	return nil
}
