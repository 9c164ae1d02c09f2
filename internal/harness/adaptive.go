// The adaptive-execution ablation: does the AQE-style planner recover the
// stage wall-clock that reduce-side skew and partition dust destroy?
//
// Two scenarios run with the adaptive planner on and off, everything else
// identical:
//
//   - skewed: a GroupByKey whose hot key carries ~90% of the shuffled bytes,
//     so one reduce task fetches almost the whole shuffle while its siblings
//     idle. The planner must detect the skewed partition from the map-output
//     statistics and split its fetch into parallel sub-tasks; the experiment
//     asserts the stage wall-clock improves by at least 1.3x.
//   - tiny-parts: the same pairs scattered over 512 nearly-empty reduce
//     partitions, a scheduling-overhead-bound stage. The planner must coalesce
//     neighbours up to the byte target, cutting the task count by an order of
//     magnitude.
//
// In both scenarios the collected results must be bit-identical with the
// planner on and off — the determinism contract the rdd package's parity
// tests pin; here it is re-checked end to end on a real workload.

package harness

import (
	"fmt"
	"io"

	"sparkscore/internal/cluster"
	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

// AdaptiveRow is one measured cell of the adaptive grid.
type AdaptiveRow struct {
	Scenario        string
	Adaptive        bool
	StageSeconds    float64
	Tasks           int
	CoalescedGroups int
	SkewedParts     int
	SubSplits       int
}

const (
	adaptMapParts = 16    // map side of the measured shuffle
	adaptPairs    = 40000 // shuffled pairs
	adaptHotHint  = 2048  // bytes/pair in the skewed scenario: fetch-bound
	adaptTinyHint = 64    // bytes/pair in the tiny-parts scenario: overhead-bound
)

// runAdaptiveCell measures one grid cell and returns its row plus a digest of
// the collected result for the bit-identity check.
func (h *Harness) runAdaptiveCell(scenario string, adaptive bool) (AdaptiveRow, string, error) {
	row := AdaptiveRow{Scenario: scenario, Adaptive: adaptive}
	probe := rdd.ListenerFunc(func(ev rdd.Event) {
		switch e := ev.(type) {
		case *rdd.StageCompleted:
			row.StageSeconds += e.Seconds
		case *rdd.TaskStart:
			row.Tasks++
		case *rdd.AdaptivePlan:
			row.CoalescedGroups += e.CoalescedGroups
			row.SkewedParts += len(e.Skewed)
			row.SubSplits += e.SubSplits
		}
	})
	acfg := rdd.AdaptiveConfig{Enabled: adaptive}
	if scenario == "tiny-parts" {
		// The dust is ~5 KiB per partition; the default 64 MiB target would
		// collapse the whole stage into one task and serialise it. A 64 KiB
		// target coalesces ~13 neighbours per group, enough to amortise the
		// per-task overhead while keeping every core busy.
		acfg.TargetPartitionBytes = 64 << 10
	}
	ctx, err := rdd.New(rdd.Config{
		Cluster: cluster.Config{
			Nodes: 6, Spec: cluster.M3TwoXLarge,
			ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 2,
		},
		Seed: h.Seed,
		// As in the speculation ablation: the stage fee must stay well under
		// the effect being measured.
		StageOverheadSec: 0.0005,
		SchedOverheadSec: 0.0005,
		Adaptive:         acfg,
		Listeners:        []rdd.Listener{probe},
	})
	if err != nil {
		return AdaptiveRow{}, "", err
	}
	ids := make([]int, adaptPairs)
	for i := range ids {
		ids[i] = i
	}
	nums := rdd.Parallelize(ctx, ids, adaptMapParts).SetSizeHint(8)
	var pairs *rdd.RDD[rdd.KV[int, int]]
	var reduceParts int
	if scenario == "skewed" {
		// Key 0 takes 90% of the pairs; 64 cold keys share the rest.
		pairs = rdd.Map(nums, "skewedPairs", func(i int) rdd.KV[int, int] {
			if i%10 != 0 {
				return rdd.KV[int, int]{K: 0, V: i}
			}
			return rdd.KV[int, int]{K: 1 + i%64, V: i}
		}).SetSizeHint(adaptHotHint)
		reduceParts = 8
	} else {
		pairs = rdd.Map(nums, "tinyPairs", func(i int) rdd.KV[int, int] {
			return rdd.KV[int, int]{K: i, V: i}
		}).SetSizeHint(adaptTinyHint)
		reduceParts = 512
	}
	out, err := rdd.Collect(rdd.GroupByKey(pairs, reduceParts))
	if err != nil {
		return AdaptiveRow{}, "", err
	}
	return row, fmt.Sprintf("%v", out), nil
}

// runAdaptive measures the scenario x planner grid and asserts the claims:
// identical results either way, >= 1.3x stage wall-clock on the skewed
// scenario, and a detected skew split plus a real task-count reduction from
// coalescing.
func runAdaptive(h *Harness, w io.Writer) error {
	type cell struct {
		row    AdaptiveRow
		digest string
	}
	cells := map[[2]any]cell{}
	var rows []AdaptiveRow
	for _, scenario := range []string{"skewed", "tiny-parts"} {
		for _, adaptive := range []bool{false, true} {
			row, digest, err := h.runAdaptiveCell(scenario, adaptive)
			if err != nil {
				return err
			}
			cells[[2]any{scenario, adaptive}] = cell{row, digest}
			rows = append(rows, row)
		}
	}
	ratio := func(scenario string) float64 {
		static := cells[[2]any{scenario, false}].row.StageSeconds
		adapt := cells[[2]any{scenario, true}].row.StageSeconds
		if adapt <= 0 {
			return 0
		}
		return static / adapt
	}
	skewRatio := ratio("skewed")
	tinyRatio := ratio("tiny-parts")

	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	t := metrics.NewTable(
		fmt.Sprintf("Adaptive execution: %d pairs, %d map partitions, skew split + coalescing", adaptPairs, adaptMapParts),
		"scenario", "adaptive", "stage (sim-s)", "tasks", "coalesced-groups", "skewed-parts", "sub-splits")
	for _, r := range rows {
		t.AddRow(r.Scenario, onOff(r.Adaptive),
			metrics.FormatSeconds(r.StageSeconds), fmt.Sprint(r.Tasks),
			fmt.Sprint(r.CoalescedGroups), fmt.Sprint(r.SkewedParts), fmt.Sprint(r.SubSplits))
	}
	t.AddRow("skewed", "speedup", fmt.Sprintf("%.2fx", skewRatio), "", "", "", "")
	t.AddRow("tiny-parts", "speedup", fmt.Sprintf("%.2fx", tinyRatio), "", "", "", "")
	t.Fprint(w)

	for _, scenario := range []string{"skewed", "tiny-parts"} {
		if cells[[2]any{scenario, false}].digest != cells[[2]any{scenario, true}].digest {
			return fmt.Errorf("adaptive: %s results diverged between planner on and off", scenario)
		}
	}
	skewOn := cells[[2]any{"skewed", true}].row
	if skewOn.SkewedParts == 0 || skewOn.SubSplits < 2 {
		return fmt.Errorf("adaptive: skewed scenario not split (skewed-parts %d, sub-splits %d)",
			skewOn.SkewedParts, skewOn.SubSplits)
	}
	if skewRatio < 1.3 {
		return fmt.Errorf("adaptive: skew mitigation %.2fx < 1.3x (static %.4f, adaptive %.4f sim-s)",
			skewRatio, cells[[2]any{"skewed", false}].row.StageSeconds, skewOn.StageSeconds)
	}
	tinyOn := cells[[2]any{"tiny-parts", true}].row
	tinyOff := cells[[2]any{"tiny-parts", false}].row
	if tinyOn.CoalescedGroups == 0 || tinyOn.Tasks >= tinyOff.Tasks {
		return fmt.Errorf("adaptive: tiny-parts scenario not coalesced (%d groups, %d tasks vs %d static)",
			tinyOn.CoalescedGroups, tinyOn.Tasks, tinyOff.Tasks)
	}
	return nil
}
