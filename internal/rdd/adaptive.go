// Adaptive stage execution — the engine's counterpart of Spark 3.x Adaptive
// Query Execution (AQE). After a shuffle's map stage completes, the planner
// reads the per-reduce-partition output sizes from the map-output table the
// shuffle manager already keeps (Spark's MapOutputStatistics) and rewrites
// the consuming stage's task set:
//
//   - Coalescing: runs of adjacent small reduce partitions are merged into
//     one physical task up to Config.Adaptive.TargetPartitionBytes (the
//     analogue of spark.sql.adaptive.coalescePartitions +
//     advisoryPartitionSizeInBytes). The grouped task runs each logical
//     partition's original closure in partition order inside one task
//     context, so every fold tree is untouched — only the per-task scheduling
//     overhead and task count change.
//   - Skew splitting: a reduce partition larger than skewFactor × the median
//     (and at least skewMinBytes) has its fetch split into up to maxSubSplits
//     contiguous map-output ranges (spark.sql.adaptive.skewJoin semantics),
//     run as a prefetch sub-stage before the consuming stage. Each sub-task
//     charges its range's transfer bytes and materialises the range's pairs
//     in map-output order; the consuming reduce task then replays its
//     combine folds over the prefetched pairs in exactly the order a full
//     fetch would have delivered (see shuffleBucketSeqs), so results are
//     bitwise identical to the non-adaptive plan.
//
// Determinism. The plan is a pure function of the map-output table, which
// is complete and immutable between stages (one world per wave) and
// deterministic for a fixed Config — byte counts, never measured durations,
// drive every decision. A map output that is missing when the planner looks
// (its node died after the map stage) means the static plan this round; the
// fetch failure that follows repairs the table and the next round plans from
// it. What adaptation changes is the physical task set (and therefore
// virtual-time accounting and the per-physical-task fault draws: a grouped
// task draws its launch-crash and straggler decisions once, under its first
// logical partition's identity); what it never changes is the value computed
// for any partition, pinned by the adaptive-versus-static parity suite in
// adaptive_test.go.

package rdd

import (
	"fmt"
	"sort"
)

// AdaptiveConfig enables adaptive stage execution (Spark's
// spark.sql.adaptive.* family). The zero value disables it, preserving the
// static plan — and its event log — bit for bit.
type AdaptiveConfig struct {
	// Enabled turns adaptive planning on (spark.sql.adaptive.enabled).
	Enabled bool

	// TargetPartitionBytes is the coalescing target: adjacent reduce
	// partitions are grouped into one task while their combined input stays
	// under it (spark.sql.adaptive.advisoryPartitionSizeInBytes). Zero
	// selects 64 MiB, Spark's default advisory size.
	TargetPartitionBytes int64
}

// The skew policy, at Spark's spark.sql.adaptive.skewJoin defaults: a reduce
// partition is skewed when its input exceeds skewFactor × the median
// partition input (skewedPartitionFactor) and is at least skewMinBytes
// (skewedPartitionThresholdInBytes, scaled to this engine's inputs); its
// fetch is divided into at most maxSubSplits sub-tasks.
const (
	skewFactor   = 5
	skewMinBytes = 1 << 20
	maxSubSplits = 8
)

func (a AdaptiveConfig) targetPartitionBytes() int64 {
	if a.TargetPartitionBytes <= 0 {
		return 64 << 20
	}
	return a.TargetPartitionBytes
}

// Validate rejects a negative coalescing target with an error naming the
// field.
func (a AdaptiveConfig) Validate() error {
	if a.TargetPartitionBytes < 0 {
		return fmt.Errorf("rdd: AdaptiveConfig.TargetPartitionBytes = %d is negative", a.TargetPartitionBytes)
	}
	return nil
}

// AdaptivePlan records one non-trivial plan rewrite: how many logical
// partitions the stage had, how many physical tasks the planner scheduled,
// which partitions were treated as skewed, and how many prefetch sub-splits
// they were divided into. Emitted just before the (possibly empty) prefetch
// sub-stage runs.
type AdaptivePlan struct {
	EventTime
	Job   uint64 `json:"job"`
	Stage uint64 `json:"stage"`
	Round int    `json:"round"`
	RDD   string `json:"rdd"`
	// Partitions is the stage's pending logical partition count; Tasks the
	// physical task count after coalescing.
	Partitions      int   `json:"partitions"`
	Tasks           int   `json:"tasks"`
	CoalescedGroups int   `json:"coalescedGroups,omitempty"`
	Skewed          []int `json:"skewed,omitempty"`
	SubSplits       int   `json:"subSplits,omitempty"`
}

func (*AdaptivePlan) Name() string { return "AdaptivePlan" }

// mapRange is one contiguous range of map outputs, [lo, hi).
type mapRange struct {
	lo, hi int
}

// splitByteRanges divides [0, len(perMap)) into at most k contiguous,
// non-empty ranges with approximately balanced byte totals — deterministic
// greedy quantile cuts.
func splitByteRanges(perMap []int64, k int) []mapRange {
	n := len(perMap)
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	var total int64
	for _, b := range perMap {
		total += b
	}
	out := make([]mapRange, 0, k)
	lo := 0
	var cum int64
	for m := 0; m < n && len(out) < k-1; m++ {
		cum += perMap[m]
		// Cut when this prefix covers the next byte quantile, or when the
		// remaining map outputs are only just enough to keep every later
		// range non-empty.
		quantile := (total*int64(len(out)+1) + int64(k) - 1) / int64(k)
		if cum >= quantile || n-(m+1) == k-(len(out)+1) {
			out = append(out, mapRange{lo, m + 1})
			lo = m + 1
		}
	}
	if lo < n {
		out = append(out, mapRange{lo, n})
	}
	return out
}

// adaptStage is the planner: given a stage's pending per-partition task list
// (ascending partition order), it returns the physical task set to run —
// coalesced groups and skew singletons — after running the prefetch sub-stage
// for skewed partitions. It returns the input unchanged whenever adaptation
// does not apply: disabled, no shuffle inputs, a map output missing from the
// table, or an input dependency partitioned differently from the stage.
func (c *Context) adaptStage(jr *jobRun, stageID uint64, round int, stageNode *node, tasks []*task, recovery bool) ([]*task, error) {
	ac := c.cfg.Adaptive
	if !ac.Enabled || len(tasks) == 0 {
		return tasks, nil
	}
	inputs := stageNode.stageShuffleDeps()
	if len(inputs) == 0 {
		return tasks, nil
	}
	parts := stageNode.parts
	perDep := make([][][]int64, len(inputs))
	maxMapParts := 0
	for i, sd := range inputs {
		if sd.parts != parts || sd.subFetch == nil {
			return tasks, nil
		}
		rows, ok := c.shuffle.bytesFor(sd.id, sd.parent.parts, parts)
		if !ok {
			return tasks, nil
		}
		perDep[i] = rows
		if sd.parent.parts > maxMapParts {
			maxMapParts = sd.parent.parts
		}
	}

	// Per-reduce-partition input sizes, summed over every input dependency.
	sizes := make([]int64, parts)
	for i := range inputs {
		for _, row := range perDep[i] {
			for p, b := range row {
				sizes[p] += b
			}
		}
	}
	sorted := append([]int64(nil), sizes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]

	// Skew detection: size beyond skewFactor × median and the absolute
	// floor, and at least two map outputs to split the fetch across.
	skewed := map[int]bool{}
	if maxMapParts >= 2 {
		limit := skewFactor * float64(median)
		for p, sz := range sizes {
			if float64(sz) > limit && sz >= skewMinBytes {
				skewed[p] = true
			}
		}
	}

	// Coalescing: group runs of adjacent pending non-skewed partitions up to
	// the advisory target. Skewed partitions always run alone.
	target := ac.targetPartitionBytes()
	var groups [][]*task
	var cur []*task
	var curBytes int64
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur, curBytes = nil, 0
		}
	}
	for _, t := range tasks {
		if skewed[t.part] {
			flush()
			groups = append(groups, []*task{t})
			continue
		}
		if len(cur) > 0 && curBytes+sizes[t.part] > target {
			flush()
		}
		cur = append(cur, t)
		curBytes += sizes[t.part]
	}
	flush()

	coalesced := 0
	out := make([]*task, 0, len(groups))
	for _, g := range groups {
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		coalesced++
		members := g
		out = append(out, &task{part: members[0].part, run: func(tc *taskContext) {
			// Run each logical partition's original closure under its own
			// partition identity, in partition order: fold trees, buffered
			// events, and per-partition fault draws inside the closures are
			// exactly the static plan's.
			for _, m := range members {
				tc.part = m.part
				m.run(tc)
			}
			tc.part = members[0].part
		}})
	}

	// Skew prefetch: one sub-task per (input dependency, map-output range),
	// materialising the skewed partition's pairs ahead of the consuming
	// stage so the heavy fetch parallelises across sub-tasks.
	var ptasks []*task
	var skewList []int
	subSplits := 0
	for _, t := range tasks {
		p := t.part
		if !skewed[p] {
			continue
		}
		skewList = append(skewList, p)
		sub := 0
		for i, sd := range inputs {
			perMap := make([]int64, sd.parent.parts)
			for m := range perMap {
				perMap[m] = perDep[i][m][p]
			}
			for _, rg := range splitByteRanges(perMap, maxSubSplits) {
				sub++
				subSplits++
				sd, p, rg := sd, p, rg
				ptasks = append(ptasks, &task{part: p, sub: sub, run: func(tc *taskContext) {
					sd.subFetch(tc, p, rg.lo, rg.hi)
				}})
			}
		}
	}

	if coalesced == 0 && len(skewList) == 0 {
		return tasks, nil // the static plan was already right-sized
	}
	c.emit(jr.now(), &AdaptivePlan{Job: jr.job, Stage: stageID, Round: round, RDD: stageNode.name,
		Partitions: len(tasks), Tasks: len(out), CoalescedGroups: coalesced,
		Skewed: skewList, SubSplits: subSplits})
	if len(ptasks) > 0 {
		if err := c.runStage(jr, stageID, round, stageNode, ptasks, recovery, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}
