// Built-in bus listeners: the metrics listener that reconstructs JobMetrics
// from events (the scheduler no longer mutates metrics directly) and an
// opt-in console progress listener — the engine's stand-ins for the Spark
// UI's metrics store and spark.ui.showConsoleProgress. Both are views that
// must be live; every post-mortem view, the event timeline included, is
// cmd/sparkui's rendering of the EventLogWriter's log.

package rdd

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// metricsListener rebuilds JobMetrics purely from bus events. It is always
// registered first on the bus, so Context.Jobs keeps working with no
// scheduler-side accumulation. Accumulation is keyed by the event's JobID, so
// interleaved events from concurrent jobs land on the right accumulator, and
// a job moves into the snapshot only at its JobEnd: Context.Jobs taken while
// jobs are in flight never exposes partially-accumulated metrics. Failed jobs
// are not recorded, matching the pre-listener behaviour (an aborted action
// contributed neither metrics nor virtual time).
type metricsListener struct {
	mu     sync.Mutex
	active map[uint64]*JobMetrics
	jobs   []JobMetrics
}

func newMetricsListener() *metricsListener {
	return &metricsListener{active: map[uint64]*JobMetrics{}}
}

// eventJob maps an event to the job it belongs to; 0 means no job (context
// events like NodeLost and ExecutorExcluded).
func eventJob(ev Event) uint64 {
	switch e := ev.(type) {
	case *StageSubmitted:
		return e.Job
	case *StageCompleted:
		return e.Job
	case *StageResubmitted:
		return e.Job
	case *TaskStart:
		return e.Job
	case *TaskEnd:
		return e.Job
	case *BlockCached:
		return e.Job
	case *BlockEvicted:
		return e.Job
	case *ShuffleSpill:
		return e.Job
	case *FetchFailure:
		return e.Job
	case *JobCancelled:
		return e.Job
	}
	return 0
}

func (ml *metricsListener) OnEvent(ev Event) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	switch e := ev.(type) {
	case *JobStart:
		jm := &JobMetrics{Action: e.Action, RDD: e.RDD}
		jm.VirtualSeconds += e.BroadcastSeconds
		ml.active[e.Job] = jm
		return
	case *JobEnd:
		// Cancelled jobs are recorded (flagged Cancelled) — unlike failures,
		// nothing is suspect about their partial accounting; failed jobs stay
		// unrecorded as before.
		if jm, ok := ml.active[e.Job]; ok && !e.Failed {
			jm.Cancelled = e.Cancelled
			ml.jobs = append(ml.jobs, *jm)
		}
		delete(ml.active, e.Job)
		return
	}
	jm := ml.active[eventJob(ev)]
	if jm == nil {
		return
	}
	switch e := ev.(type) {
	case *StageSubmitted:
		jm.Stages++
		jm.Tasks += e.NumTasks
		// Result-stage re-runs (Stage 0) revisit only unfinished partitions;
		// recomputed work means map partitions re-executed by resubmission.
		if e.Stage != 0 && e.Recovery {
			jm.RecomputedPartitions += e.NumTasks
		}
	case *StageCompleted:
		jm.VirtualSeconds += e.Seconds
	case *StageResubmitted:
		jm.StageAttempts++
	case *TaskStart:
		if e.Attempt > 1 {
			jm.TaskRetries++
		}
	case *TaskEnd:
		m := e.Metrics
		jm.Ops += m.Ops
		jm.DFSBytes += m.DFSLocalBytes + m.DFSRemoteBytes
		jm.DFSLocalBytes += m.DFSLocalBytes
		jm.ShuffleBytes += m.ShuffleLocalBytes + m.ShuffleRemoteBytes
		jm.ShuffleRemoteBytes += m.ShuffleRemoteBytes
		jm.CacheReadBytes += m.CacheLocalBytes + m.CacheDiskLocalBytes + m.CacheRemoteBytes
		jm.MaterializedBytes += m.MaterializedBytes
		if m.MaterializedBytes > jm.PeakMaterializedBytes {
			jm.PeakMaterializedBytes = m.MaterializedBytes
		}
		if m.FusedChain > jm.MaxFusedChain {
			jm.MaxFusedChain = m.FusedChain
		}
		jm.SpilledBytes += m.SpilledBytes
		jm.SpillCount += m.SpillCount
		jm.ShuffleBufferBytes += m.ShuffleBufferBytes
		if m.ExecutionPeakBytes > jm.ExecutionPeakBytes {
			jm.ExecutionPeakBytes = m.ExecutionPeakBytes
		}
		if e.Recovery {
			jm.RecoverySeconds += e.DurationSec
		}
	case *BlockEvicted:
		// Per-job eviction delta: only evictions caused by this job's tasks
		// count, not the context's lifetime total.
		jm.Evictions++
	}
}

func (ml *metricsListener) snapshot() []JobMetrics {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	out := make([]JobMetrics, len(ml.jobs))
	copy(out, ml.jobs)
	return out
}

func (ml *metricsListener) count() int {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return len(ml.jobs)
}

func (ml *metricsListener) reset() {
	ml.mu.Lock()
	ml.jobs = nil
	ml.active = map[uint64]*JobMetrics{}
	ml.mu.Unlock()
}

// ConsoleProgressListener prints job, stage, and recovery progress as events
// arrive — an opt-in text rendering in the spirit of Spark's console
// progress bar. With RecoveryOnly set it stays silent until something goes
// wrong, printing only failures, retries, resubmissions, exclusions, and
// node losses: the right mode for chaos runs with many jobs.
type ConsoleProgressListener struct {
	// W receives the output; nil selects os.Stdout.
	W io.Writer
	// RecoveryOnly suppresses routine job/stage progress lines.
	RecoveryOnly bool

	mu sync.Mutex
}

func (cp *ConsoleProgressListener) printf(format string, args ...any) {
	w := cp.W
	if w == nil {
		w = os.Stdout
	}
	fmt.Fprintf(w, format+"\n", args...)
}

func stageLabel(stage uint64) string {
	if stage == 0 {
		return "result"
	}
	return fmt.Sprintf("map(shuffle %d)", stage)
}

// OnEvent implements Listener.
func (cp *ConsoleProgressListener) OnEvent(ev Event) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	switch e := ev.(type) {
	case *JobStart:
		if !cp.RecoveryOnly {
			cp.printf("[job %d] %s(%s) started at t=%.3f sim-s", e.Job, e.Action, e.RDD, e.Time)
		}
	case *JobEnd:
		if e.Failed {
			cp.printf("[job %d] FAILED after %.3f sim-s: %s", e.Job, e.VirtualSeconds, e.Error)
		} else if e.Cancelled {
			cp.printf("[job %d] cancelled after %.3f sim-s", e.Job, e.VirtualSeconds)
		} else if !cp.RecoveryOnly {
			cp.printf("[job %d] done in %.3f sim-s", e.Job, e.VirtualSeconds)
		}
	case *JobCancelled:
		cp.printf("[job %d] cancelling %s(%s): %s", e.Job, e.Action, e.RDD, e.Reason)
	case *StageSubmitted:
		if !cp.RecoveryOnly {
			suffix := ""
			if e.Recovery {
				suffix = " (recovery)"
			}
			cp.printf("[job %d]   stage %s: %d tasks%s", e.Job, stageLabel(e.Stage), e.NumTasks, suffix)
		} else if e.Recovery {
			cp.printf("[job %d] recovery: re-running %d tasks of stage %s", e.Job, e.NumTasks, stageLabel(e.Stage))
		}
	case *StageCompleted:
		if !cp.RecoveryOnly {
			cp.printf("[job %d]   stage %s done in %.3f sim-s (%d tasks, %d failed attempts)",
				e.Job, stageLabel(e.Stage), e.Seconds, e.NumTasks, e.FailedAttempts)
		}
	case *StageResubmitted:
		cp.printf("[job %d] fetch failure: resubmitting map stage of shuffle %d (attempt %d): %s",
			e.Job, e.Shuffle, e.Attempt, e.Reason)
	case *TaskEnd:
		if !e.OK {
			cp.printf("[job %d]     task %d attempt %d failed on executor %d: %s",
				e.Job, e.Part, e.Attempt, e.Executor, e.Failure)
		}
	case *ExecutorExcluded:
		cp.printf("executor %d excluded after %d task failures", e.Executor, e.Failures)
	case *NodeLost:
		cp.printf("node %d lost (executors %v): cached blocks, shuffle outputs, and DFS replicas gone", e.Node, e.Executors)
	}
}
