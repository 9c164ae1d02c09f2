// Deterministic fault injection and the recovery error taxonomy.
//
// Chaos runs must be reproducible: a fault either fires or does not fire
// depending only on the configuration Seed and the identity of the decision
// point, never on scheduling order. Every injection decision is therefore a
// pure function of (fault kind, job, stage, DAG attempt round, partition,
// task attempt), drawn from a dedicated RNG stream via order-insensitive
// Split — the same mechanism that makes resampling partition streams
// independent of execution order.

package rdd

import "fmt"

// FaultProfile configures deterministic fault injection for chaos runs. The
// zero value injects nothing. All decisions derive from Config.Seed, so two
// runs with identical Config and workload inject byte-identical faults.
type FaultProfile struct {
	// TaskCrashProb is the probability that a task attempt crashes at
	// launch, before producing any output. Crashed attempts are retried up
	// to taskMaxFailures (4) times.
	TaskCrashProb float64

	// FetchFailureProb is the probability, per shuffle read per task
	// attempt, that a map output is reported lost. The injected failure
	// also destroys the chosen output, so recovery must recompute it by
	// resubmitting the parent map stage (not merely refetch).
	FetchFailureProb float64

	// StragglerProb is the probability that a task attempt is a straggler;
	// its simulated duration is multiplied by stragglerFactor (8).
	StragglerProb float64

	// NodeLoss schedules whole-machine losses: once AfterTasks further
	// tasks complete, the node dies — executors, cached blocks, shuffle
	// outputs, and DFS replicas included (Context.failNode).
	NodeLoss []NodeLoss
}

// NodeLoss is one scheduled machine loss in a FaultProfile.
type NodeLoss struct {
	Node       int
	AfterTasks int64
}

// Validate rejects profiles that could only have been written by mistake —
// probabilities outside [0,1] or NaN, node losses scheduled before the run
// starts — with an error naming the field, instead of silently clamping or
// misbehaving at runtime.
func (f FaultProfile) Validate() error {
	check := func(name string, p float64) error {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("rdd: FaultProfile.%s = %g is not a probability (want [0,1])", name, p)
		}
		return nil
	}
	if err := check("TaskCrashProb", f.TaskCrashProb); err != nil {
		return err
	}
	if err := check("FetchFailureProb", f.FetchFailureProb); err != nil {
		return err
	}
	if err := check("StragglerProb", f.StragglerProb); err != nil {
		return err
	}
	for i, nl := range f.NodeLoss {
		if nl.Node < 0 {
			return fmt.Errorf("rdd: FaultProfile.NodeLoss[%d].Node = %d is negative", i, nl.Node)
		}
		if nl.AfterTasks < 0 {
			return fmt.Errorf("rdd: FaultProfile.NodeLoss[%d].AfterTasks = %d schedules the loss before the run starts", i, nl.AfterTasks)
		}
	}
	return nil
}

// Fault decision-point kinds, mixed into the injection key.
const (
	faultCrash     = 0x1c
	faultFetch     = 0x2f
	faultStraggler = 0x35
)

// faultDraw returns a uniform [0,1) draw that depends only on the decision
// point's identity, never on the order decisions are made in. The dedicated
// fault stream is never advanced, so concurrent draws are safe.
func (c *Context) faultDraw(kind uint64, ids ...uint64) float64 {
	key := mix64(kind)
	for _, id := range ids {
		key = mix64(key ^ mix64(id+0x9e3779b97f4a7c15))
	}
	return c.faults.Split(key).Float64()
}

// maybeInjectCrash kills the task attempt at launch with TaskCrashProb.
func (c *Context) maybeInjectCrash(tc *taskContext) {
	p := c.cfg.Faults.TaskCrashProb
	if p <= 0 {
		return
	}
	if c.faultDraw(faultCrash, tc.job, tc.stage, uint64(tc.round), uint64(tc.part), uint64(tc.attempt)) < p {
		panic(fmt.Sprintf("injected task crash (stage %d partition %d attempt %d)", tc.stage, tc.part, tc.attempt))
	}
}

// maybeInjectFetchFailure simulates the loss of one map output of the
// shuffle as the task starts reading it: a fetch failure naming the victim is
// raised, and runStage's post-mortem destroys the victim once the wave has
// drained (so the parent map stage really must recompute it). The victim
// choice is as deterministic as the decision itself.
func (c *Context) maybeInjectFetchFailure(tc *taskContext, shuffle, mapParts int) {
	p := c.cfg.Faults.FetchFailureProb
	if p <= 0 || mapParts == 0 {
		return
	}
	key := []uint64{tc.job, uint64(shuffle), uint64(tc.round), uint64(tc.part), uint64(tc.attempt)}
	if c.faultDraw(faultFetch, key...) >= p {
		return
	}
	victim := int(mix64(tc.job^uint64(shuffle)<<20^uint64(tc.part)<<8^uint64(tc.round)) % uint64(mapParts))
	tc.emit(&FetchFailure{Job: tc.job, Stage: tc.stage, Round: tc.round, Part: tc.part,
		Attempt: tc.attempt, Shuffle: shuffle, MapPart: victim, Injected: true})
	panic(&fetchFailedError{shuffle: shuffle, mapPart: victim, injected: true})
}

// stragglerSlowdown returns the duration multiplier for the task attempt: 1
// normally, stragglerFactor when the attempt is selected as a straggler.
func (c *Context) stragglerSlowdown(tc *taskContext) float64 {
	f := c.cfg.Faults
	if f.StragglerProb <= 0 {
		return 1
	}
	if c.faultDraw(faultStraggler, tc.job, tc.stage, uint64(tc.round), uint64(tc.part), uint64(tc.attempt)) < f.StragglerProb {
		return stragglerFactor
	}
	return 1
}

// fetchFailedError is raised (as a panic inside the task, converted to an
// error by the stage runner) when a shuffle read finds a map output missing —
// because a node died taking its shuffle files with it, or because the fault
// profile injected the loss. The scheduler reacts like Spark's DAGScheduler:
// mark the parent map stage not-done and resubmit it.
type fetchFailedError struct {
	shuffle  int
	mapPart  int
	injected bool
}

func (e *fetchFailedError) Error() string {
	src := "lost"
	if e.injected {
		src = "injected loss of"
	}
	return fmt.Sprintf("rdd: fetch failure: %s map output %d of shuffle %d", src, e.mapPart, e.shuffle)
}

// TaskAbortedError is the structured job-abort error returned when a task
// has failed taskMaxFailures (4) times (Spark's task.maxFailures
// semantics: the whole job is failed, not just the task).
type TaskAbortedError struct {
	Stage    string // lineage label of the stage's RDD
	Part     int    // partition whose task exhausted its attempts
	Attempts int    // attempts consumed (== taskMaxFailures)
	Cause    error  // the final attempt's failure
}

func (e *TaskAbortedError) Error() string {
	return fmt.Sprintf("rdd: aborting job: task for partition %d of stage %q failed %d times; last failure: %v",
		e.Part, e.Stage, e.Attempts, e.Cause)
}

func (e *TaskAbortedError) Unwrap() error { return e.Cause }

// StageAbortedError is returned when a map stage has run maxStageAttempts
// (4) times and its outputs still cannot be fetched.
type StageAbortedError struct {
	Stage    string // lineage label of the map stage's RDD
	Shuffle  int    // shuffle id whose outputs kept disappearing
	Attempts int    // total stage attempts consumed
	Cause    error  // the fetch failure that exhausted the budget
}

func (e *StageAbortedError) Error() string {
	return fmt.Sprintf("rdd: aborting job: map stage %q (shuffle %d) failed after %d attempts; last failure: %v",
		e.Stage, e.Shuffle, e.Attempts, e.Cause)
}

func (e *StageAbortedError) Unwrap() error { return e.Cause }
