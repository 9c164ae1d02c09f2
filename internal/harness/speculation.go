// The speculation ablation: does speculative execution recover the stage
// wall-clock a deterministic straggler profile destroys?
//
// The workload is a single stage shaped like one wave of Experiment A's
// resampling: 24 partitions on the 6-node cluster's 48 virtual cores, so
// every task starts at virtual time zero and each executor keeps two cores
// free for speculative copies. The tasks declare no kernel work and move a
// few bytes, so each costs its 15 ms launch fee and the grid is a function of
// the schedule, like every simulated second in this repository. Under
// StragglerProb 1 every task runs 8x slow (the engine's straggler factor);
// with speculation on, copies launch at multiplier x median and run at the
// normal rate, so the stage finishes at (multiplier + 1) x the normal task
// time instead of 8x — a bound the experiment asserts as >= 3x mitigation.

package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"sparkscore/internal/cluster"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

// SpecRow is one measured cell of the speculation grid.
type SpecRow struct {
	Straggler           bool
	Speculation         bool
	StageSeconds        float64
	P99TaskSeconds      float64
	SpeculatedTasks     int
	SpeculationWonTasks int
	KilledTasks         int
}

const (
	specParts   = 24    // half the cluster's 48 slots: room for copies
	specTaskSec = 0.015 // every task's modelled duration
)

// runSpeculationCell measures one grid cell: a single stage of modelled
// 15 ms tasks under the given straggler/speculation switches.
func (h *Harness) runSpeculationCell(straggler, speculation bool) (SpecRow, error) {
	var stageSec float64
	var taskSec []float64
	probe := rdd.ListenerFunc(func(ev rdd.Event) {
		switch e := ev.(type) {
		case *rdd.StageCompleted:
			stageSec += e.Seconds
		case *rdd.TaskEnd:
			taskSec = append(taskSec, e.DurationSec)
		}
	})
	var faults rdd.FaultProfile
	if straggler {
		faults = rdd.FaultProfile{StragglerProb: 1}
	}
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes: 6, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 2,
		},
		Seed:   h.Seed,
		Faults: faults,
		// The stage fee must stay well under one task so the stage
		// wall-clock reflects the tasks the ablation manipulates (the default
		// 0.05s would dwarf them).
		StageOverheadSec: 0.0005,
		SchedOverheadSec: specTaskSec,
		Speculation:      rdd.SpeculationConfig{Enabled: speculation},
		Listeners:        []rdd.Listener{probe},
	})
	if err != nil {
		return SpecRow{}, err
	}
	ids := make([]int, specParts)
	for i := range ids {
		ids[i] = i
	}
	nums := rdd.Parallelize(ctx, ids, specParts).SetSizeHint(8)
	if _, err := rdd.Collect(rdd.Map(nums, "work", func(n int) int { return n }).SetSizeHint(8)); err != nil {
		return SpecRow{}, err
	}
	row := SpecRow{Straggler: straggler, Speculation: speculation, StageSeconds: stageSec}
	for _, m := range ctx.Jobs() {
		row.SpeculatedTasks += m.SpeculatedTasks
		row.SpeculationWonTasks += m.SpeculationWonTasks
		row.KilledTasks += m.KilledTasks
	}
	if len(taskSec) > 0 {
		sort.Float64s(taskSec)
		idx := int(math.Ceil(0.99*float64(len(taskSec)))) - 1
		if idx < 0 {
			idx = 0
		}
		row.P99TaskSeconds = taskSec[idx]
	}
	return row, nil
}

// runSpeculation measures the straggler x speculation grid and asserts the
// mitigation claim: with every task a deterministic 8x straggler, speculative
// copies must cut the stage wall-clock by at least 3x.
func runSpeculation(h *Harness, w io.Writer) error {
	var rows []SpecRow
	for _, straggler := range []bool{false, true} {
		for _, speculation := range []bool{false, true} {
			row, err := h.runSpeculationCell(straggler, speculation)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}
	cellFor := func(straggler, speculation bool) SpecRow {
		for _, r := range rows {
			if r.Straggler == straggler && r.Speculation == speculation {
				return r
			}
		}
		return SpecRow{}
	}
	unmitigated := cellFor(true, false)
	mitigated := cellFor(true, true)
	var ratio float64
	if mitigated.StageSeconds > 0 {
		ratio = unmitigated.StageSeconds / mitigated.StageSeconds
	}

	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	t := metrics.NewTable(
		fmt.Sprintf("Speculation: one %d-task stage of modelled 15 ms tasks, 8x stragglers on all tasks", specParts),
		"straggler", "speculation", "stage (sim-s)", "p99 task (sim-s)", "copies", "won", "killed")
	for _, r := range rows {
		t.AddRow(onOff(r.Straggler), onOff(r.Speculation),
			metrics.FormatSeconds(r.StageSeconds), metrics.FormatSeconds(r.P99TaskSeconds),
			fmt.Sprint(r.SpeculatedTasks), fmt.Sprint(r.SpeculationWonTasks), fmt.Sprint(r.KilledTasks))
	}
	t.AddRow("", "mitigation", fmt.Sprintf("%.2fx", ratio), "", "", "", "")
	t.Fprint(w)

	clean := cellFor(false, false)
	quiet := cellFor(false, true)
	if quiet.SpeculatedTasks != 0 {
		return fmt.Errorf("speculation: %d copies launched with no stragglers (median-rate tasks must not speculate)", quiet.SpeculatedTasks)
	}
	if unmitigated.StageSeconds <= clean.StageSeconds {
		return fmt.Errorf("speculation: straggler profile did not slow the stage (%.4f <= %.4f sim-s)",
			unmitigated.StageSeconds, clean.StageSeconds)
	}
	if ratio < 3 {
		return fmt.Errorf("speculation: stage wall-clock mitigation %.2fx < 3x (unmitigated %.4f, speculated %.4f sim-s)",
			ratio, unmitigated.StageSeconds, mitigated.StageSeconds)
	}
	return nil
}
