// Job cancellation from the submitter's context.Context (deadline, explicit
// cancel, client disconnect) — Submission.Context, which the job carries as
// it runs — the engine's counterpart of SparkContext.cancelJob and
// spark.job.interruptOnCancel.
//
// A cancellation is a *signal*, not a teardown: the scheduler notices it at
// the next task boundary (between task launches within a wave, and between
// waves/stages), stops launching further work, accounts everything already
// launched exactly as usual, and ends the job with JobCancelled plus a
// terminal JobEnd{Cancelled: true}. Nothing about the context is poisoned:
// cached blocks, finished shuffle outputs, and the clock survive, so the next
// job — even a re-run of the cancelled one — proceeds correctly, reusing any
// map outputs the cancelled run completed.

package rdd

import "fmt"

// JobCancelledError is returned by actions whose job was cancelled by its
// Submission's context.
type JobCancelledError struct {
	Job    uint64 // 0 if the job was cancelled while queued, before admission
	Reason string
}

func (e *JobCancelledError) Error() string {
	if e.Job == 0 {
		return fmt.Sprintf("rdd: job cancelled before starting: %s", e.Reason)
	}
	return fmt.Sprintf("rdd: job %d cancelled: %s", e.Job, e.Reason)
}
