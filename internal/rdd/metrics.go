// Per-job metrics, the engine's counterpart of the Spark UI numbers the
// paper's runtimes were read from.

package rdd

import "fmt"

// JobMetrics summarises one action's execution.
type JobMetrics struct {
	Action string // collect, count, reduce, foreach
	RDD    string // lineage label of the action's RDD

	Stages int
	Tasks  int

	// VirtualSeconds is the job's simulated wall-clock on the configured
	// cluster; the sum over jobs is Context.VirtualTime.
	VirtualSeconds float64
	// Ops is the total kernel work the job's tasks declared (Task.Charge).
	Ops int64

	DFSBytes           int64 // total input scanned (local + remote)
	DFSLocalBytes      int64 // portion read on a node holding a replica
	ShuffleBytes       int64 // total shuffle fetch (local + remote)
	ShuffleRemoteBytes int64 // portion fetched over the network
	CacheReadBytes     int64
	Evictions          int64

	// Streaming-execution accounting. MaterializedBytes totals the bytes all
	// tasks materialised at pipeline breakers (cache puts, shuffle bucket
	// writes, action boundaries); PeakMaterializedBytes is the largest single
	// task's materialisation — the per-task transient memory high-water mark.
	// MaxFusedChain is the longest fused narrow-operator chain any task drove
	// in a single pass. All three are scheduling-order-insensitive (sums and
	// maxes over the task set), so they are part of the replay fingerprint.
	MaterializedBytes     int64
	PeakMaterializedBytes int64
	MaxFusedChain         int

	// Memory-manager accounting. SpilledBytes/SpillCount total the spill
	// runs tasks wrote under memory pressure; ShuffleBufferBytes sums each
	// task's shuffle-buffer high-water mark; ExecutionPeakBytes is the largest
	// execution-memory grant any single task reached. All are scheduling-order-insensitive (sums and
	// maxes over the task set), so they are part of the replay fingerprint.
	SpilledBytes       int64
	SpillCount         int
	ShuffleBufferBytes int64
	ExecutionPeakBytes int64

	// Recovery accounting: what failure handling cost this job.
	TaskRetries          int // task attempts beyond each task's first
	StageAttempts        int // map-stage resubmissions after fetch failures
	RecomputedPartitions int // map partitions re-executed by resubmissions
	// RecoverySeconds is the virtual time spent on recovery work: failed
	// attempts, task retries, and every task of a resubmitted stage or a
	// re-run result wave. It is a subset of the work folded into
	// VirtualSeconds, reported so chaos runs can state recovery overhead
	// as a fraction of fault-free time.
	RecoverySeconds float64

	// Cancelled marks a job ended by its Submission's context: it produced no
	// result, but unlike a failure nothing is wrong with the context.
	Cancelled bool
}

// String renders a one-line summary.
func (m JobMetrics) String() string {
	s := fmt.Sprintf("%s(%s): %d stages, %d tasks, %.3f sim-s, %d ops, dfs=%dB shuffle=%dB cache=%dB peakMat=%dB fused=%d",
		m.Action, m.RDD, m.Stages, m.Tasks, m.VirtualSeconds, m.Ops,
		m.DFSBytes, m.ShuffleBytes, m.CacheReadBytes, m.PeakMaterializedBytes, m.MaxFusedChain)
	if m.SpillCount > 0 {
		s += fmt.Sprintf(" [spill: %d runs, %dB]", m.SpillCount, m.SpilledBytes)
	}
	if m.TaskRetries > 0 || m.StageAttempts > 0 {
		s += fmt.Sprintf(" [recovery: %d retries, %d stage re-attempts, %d recomputed parts, %.3f sim-s]",
			m.TaskRetries, m.StageAttempts, m.RecomputedPartitions, m.RecoverySeconds)
	}
	if m.Cancelled {
		s += " [cancelled]"
	}
	return s
}

// RecoveryStats aggregates recovery accounting across jobs.
type RecoveryStats struct {
	TaskRetries          int
	StageAttempts        int
	RecomputedPartitions int
	CancelledJobs        int
	RecoverySeconds      float64
	VirtualSeconds       float64
}

// SummarizeRecovery folds the recovery counters of a job list (Context.Jobs)
// into one RecoveryStats.
func SummarizeRecovery(jobs []JobMetrics) RecoveryStats {
	var s RecoveryStats
	for _, m := range jobs {
		s.TaskRetries += m.TaskRetries
		s.StageAttempts += m.StageAttempts
		s.RecomputedPartitions += m.RecomputedPartitions
		if m.Cancelled {
			s.CancelledJobs++
		}
		s.RecoverySeconds += m.RecoverySeconds
		s.VirtualSeconds += m.VirtualSeconds
	}
	return s
}

// Overhead is the share of virtual time spent on recovery work; 0 for a
// fault-free run.
func (s RecoveryStats) Overhead() float64 {
	if s.VirtualSeconds <= 0 {
		return 0
	}
	return s.RecoverySeconds / s.VirtualSeconds
}
