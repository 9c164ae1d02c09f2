// Job cancellation from the submitter's context.Context (deadline, explicit
// cancel, client disconnect), the engine's counterpart of
// SparkContext.cancelJob and spark.job.interruptOnCancel.
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

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// JobCancelledError is returned by actions whose job was cancelled by a
// RunWithCancel context.
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

// jobCancel is the cancellation token shared between the submitting
// goroutine and the scheduler. done is closed at most once; reason records
// why.
type jobCancel struct {
	once   sync.Once
	done   chan struct{}
	reason atomic.Value // string, stored before done closes
}

func newJobCancel() *jobCancel {
	return &jobCancel{done: make(chan struct{})}
}

// cancel fires the token once; later calls are no-ops.
func (t *jobCancel) cancel(reason string) {
	t.once.Do(func() {
		t.reason.Store(reason)
		close(t.done)
	})
}

// cancelled reports whether the token has fired. A nil token never fires.
func (t *jobCancel) cancelled() bool {
	if t == nil {
		return false
	}
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// why returns the cancellation reason; empty if the token has not fired.
func (t *jobCancel) why() string {
	if t == nil {
		return ""
	}
	if r, ok := t.reason.Load().(string); ok {
		return r
	}
	return ""
}

// RunWithCancel runs fn with job cancellation wired to ctx: every job the
// current goroutine submits inside fn is cancelled at its next task boundary
// when ctx is done (deadline, explicit cancel, or — in an HTTP handler — the
// client disconnecting). Cancelled actions return a *JobCancelledError.
func (c *Context) RunWithCancel(ctx context.Context, fn func() error) error {
	tok := newJobCancel()
	stop := context.AfterFunc(ctx, func() {
		reason := "cancelled"
		if err := ctx.Err(); err != nil {
			reason = err.Error()
		}
		tok.cancel(reason)
	})
	defer stop()
	g := gid()
	prev, had := c.cancelTokens.Load(g)
	c.cancelTokens.Store(g, tok)
	defer func() {
		if had {
			c.cancelTokens.Store(g, prev)
		} else {
			c.cancelTokens.Delete(g)
		}
	}()
	return fn()
}

// currentCancel returns the goroutine-scoped cancellation token installed by
// RunWithCancel, or nil.
func (c *Context) currentCancel() *jobCancel {
	if v, ok := c.cancelTokens.Load(gid()); ok {
		tok, _ := v.(*jobCancel)
		return tok
	}
	return nil
}
