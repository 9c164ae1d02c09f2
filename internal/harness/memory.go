// The memory experiment: does the sort-based external shuffle survive a
// unified pool squeezed below the shuffle working set?
//
// The working set is measured, not guessed: an uncapped run reports (per
// task) the largest shuffle buffer it held resident — deriving the cap from
// raw shuffle bytes would squeeze nothing, because no single task ever holds
// them all. The executor pool is then capped at half that high-water mark, so
// a shuffle that must keep its buffers resident could not run at all, and the
// scale-100 chaos configuration (Experiment A + task crashes, fetch failures,
// and a node loss) is rerun twice: it must complete, must spill, must produce
// a report bitwise-equal to the uncapped run, and the two seeded replays must
// have identical job fingerprints (spill accounting included).
//
// Capped runs pin Workers=1 (Params.SingleWorker): concurrent tasks share one
// capped pool, so which grant is denied — and with it where a buffer spills —
// depends on how they interleave unless host-side execution is serialised.
// This is the one behaviour Config.Workers still influences.

package harness

import (
	"fmt"
	"io"
	"strings"

	"sparkscore/internal/core"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

// MemoryRun is one measured mode of the capped-pool grid.
type MemoryRun struct {
	CapBytes       int64   // 0 = uncapped (scaled default)
	Chaos          bool    // chaos fault profile active
	Completed      bool    // job finished (vs aborted)
	Error          string  // abort cause when !Completed
	SimSeconds     float64 // simulated runtime
	SpilledBytes   int64   // encoded sorted-run bytes written
	SpillCount     int     // sorted runs written
	TaskBufferPeak int64   // largest per-task shuffle buffer
}

// runMemoryMode executes one grid cell with a TaskEnd probe for the per-task
// buffer high-water mark, returning the measurements, the inference result
// (nil when the job aborted), and the replay fingerprint of the job metrics.
func (h *Harness) runMemoryMode(p Params, faults rdd.FaultProfile) (MemoryRun, *core.Result, string, error) {
	run := MemoryRun{CapBytes: p.MemCapBytes, Chaos: faults.TaskCrashProb > 0}
	probe := rdd.ListenerFunc(func(ev rdd.Event) {
		if e, ok := ev.(*rdd.TaskEnd); ok && e.Metrics.ShuffleBufferBytes > run.TaskBufferPeak {
			run.TaskBufferPeak = e.Metrics.ShuffleBufferBytes
		}
	})
	saved := h.extraListeners
	h.extraListeners = append(append([]rdd.Listener(nil), saved...), probe)
	ctx, res, err := h.run(p, faults)
	h.extraListeners = saved
	if err != nil {
		run.Error = err.Error()
		return run, nil, "", nil
	}
	run.Completed = true
	run.SimSeconds = ctx.VirtualTime()
	var fp strings.Builder
	for _, m := range ctx.Jobs() {
		run.SpilledBytes += m.SpilledBytes
		run.SpillCount += m.SpillCount
		fmt.Fprintf(&fp, "%+v\n", m)
	}
	return run, res, fp.String(), nil
}

// runMemory measures the capped-pool grid and asserts the claim: with
// executor memory capped at 50% of the measured per-task working set, the
// shuffle spills and completes the chaos run bitwise-equal to the uncapped
// baseline, and replays identically.
func runMemory(h *Harness, w io.Writer) error {
	base := chaosParams(h)

	// Uncapped baseline: measures the working set (the largest shuffle buffer
	// any task held resident) and produces the reference report.
	baseline, baselineRes, _, err := h.runMemoryMode(base, rdd.FaultProfile{})
	if err != nil {
		return fmt.Errorf("memory: uncapped baseline: %w", err)
	}
	if !baseline.Completed {
		return fmt.Errorf("memory: uncapped baseline aborted: %s", baseline.Error)
	}
	workingSet := baseline.TaskBufferPeak
	if workingSet <= 0 {
		return fmt.Errorf("memory: baseline held no shuffle buffers; working set unmeasurable")
	}
	cap := workingSet / 2

	capped := base
	capped.MemCapBytes = cap
	capped.SingleWorker = true
	first, firstRes, fp1, err := h.runMemoryMode(capped, chaosFaults())
	if err != nil {
		return fmt.Errorf("memory: capped chaos run: %w", err)
	}
	replay, replayRes, fp2, err := h.runMemoryMode(capped, chaosFaults())
	if err != nil {
		return fmt.Errorf("memory: capped replay: %w", err)
	}

	replaysIdentical := first.Completed && replay.Completed && fp1 == fp2
	resultsMatch := firstRes != nil && resultsEqual(baselineRes, firstRes) &&
		replayRes != nil && resultsEqual(baselineRes, replayRes)

	status := func(r MemoryRun) string {
		if r.Completed {
			return "ok"
		}
		return "aborted"
	}
	capCell := func(r MemoryRun) string {
		if r.CapBytes == 0 {
			return "uncapped"
		}
		return fmt.Sprint(r.CapBytes)
	}
	runs := []MemoryRun{baseline, first, replay}
	t := metrics.NewTable(
		fmt.Sprintf("Memory: chaos run under a %d B pool (50%% of the per-task working set %d B)", cap, workingSet),
		"cap (B)", "chaos", "status", "sim-s", "spills", "spilled (B)", "task buffer peak (B)")
	for _, r := range runs {
		t.AddRow(capCell(r), fmt.Sprint(r.Chaos), status(r), metrics.FormatSeconds(r.SimSeconds),
			fmt.Sprint(r.SpillCount), fmt.Sprint(r.SpilledBytes), fmt.Sprint(r.TaskBufferPeak))
	}
	t.Fprint(w)
	fmt.Fprintf(w, "capped replays identical: %v\n", replaysIdentical)
	fmt.Fprintf(w, "capped report bitwise-equal to uncapped: %v\n", resultsMatch)

	if !first.Completed {
		return fmt.Errorf("memory: capped run aborted: %s", first.Error)
	}
	if first.SpillCount == 0 || first.SpilledBytes == 0 {
		return fmt.Errorf("memory: capped run did not spill (%d runs, %d B) — the cap is not below the working set",
			first.SpillCount, first.SpilledBytes)
	}
	if !replaysIdentical {
		return fmt.Errorf("memory: capped replays with the same seed diverged (spill accounting or recovery trace)")
	}
	if !resultsMatch {
		return fmt.Errorf("memory: capped inference not bitwise-equal to the uncapped baseline")
	}
	return nil
}
