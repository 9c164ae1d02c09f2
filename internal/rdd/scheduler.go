// The DAG scheduler. A job is split into stages at shuffle boundaries: every
// shuffle dependency reachable from the action's RDD becomes a map stage
// (outputs retained), and the action itself is the result stage. Within a
// stage, one task per partition executes the pipelined narrow chain.
//
// Tasks are placed on executors by locality preference (cached block holder,
// then HDFS replica node, then least-loaded), run for real on the host under
// a bounded worker pool, and have the work they counted — bytes moved, kernel
// operations declared — converted into virtual seconds on the executor's core
// slots. The host's stopwatch times every attempt too (TaskEnd.ComputeSec),
// for observers; no simulated second is derived from it.
//
// Failure handling mirrors Spark's DAGScheduler/TaskSetManager split:
//
//   - A failed task attempt is retried on a freshly chosen executor, up to
//     taskMaxFailures attempts; exhaustion aborts the job with a
//     TaskAbortedError. Executors accumulating failures are excluded from
//     further placement (blacklisting).
//   - A fetch failure (missing map output) fails the stage, not the task:
//     the parent shuffle dependency is marked not-done and the map stage is
//     resubmitted for the missing partitions only, bounded by
//     maxStageAttempts. Result partitions already visited are not re-run.
//   - Recovery work — failed attempts, retries, resubmitted stages — is
//     accounted separately in JobMetrics.RecoverySeconds.

package rdd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// task is one partition of a stage: where its next attempt is placed, the
// work it runs, and its latest attempt (nil until one is launched).
type task struct {
	part     int
	executor int
	run      func(tc *taskContext)
	tc       *taskContext
}

// jobRun is the driver-side state of one running job: its id, the context
// that cancels it, the virtual clock at job start, and the virtual seconds
// accumulated so far. Virtual event timestamps are base + virt; all metric
// accumulation happens in bus listeners, not here.
type jobRun struct {
	job  uint64
	ctx  context.Context // the submission's; done means stop at the next task boundary
	base float64         // context clock when the job was admitted
	virt float64         // virtual seconds this job has accumulated
}

func (j *jobRun) now() float64 { return j.base + j.virt }

// runJob executes the action on the final node. eval runs inside each result
// task, in parallel: it receives the task context and partition index and
// must drive the partition's cursor to a result (this is where a fused chain
// actually streams, outside any driver lock). visit then receives eval's
// result under the driver lock (no internal synchronisation needed) and is
// called at most once per partition even across stage re-attempts.
func (c *Context) runJob(final *node, action string, eval func(tc *taskContext, p int) any, visit func(p int, v any)) (err error) {
	// A job outside any Submit runs uncancellable in the default pool and
	// reports its span to nobody.
	var scope *submitScope
	ctx, pool := context.Background(), DefaultPool
	if v, ok := c.scopes.Load(gid()); ok {
		scope = v.(*submitScope)
		ctx, pool = scope.Context, scope.Pool
	}
	// Admission: under FIFO this blocks until every earlier submission has
	// ended (jobs run back-to-back on the virtual clock); under FAIR it
	// returns immediately and the job runs on its pool's slot share. The job
	// id and clock base are taken only after admission, so ids and start
	// times follow admission order.
	if !c.sched.admit(ctx) {
		// Cancelled while queued for FIFO admission: the job never started —
		// no id was assigned and no events are emitted.
		return &JobCancelledError{Reason: ctx.Err().Error()}
	}
	job := c.newJobID()
	c.mu.Lock()
	base := c.clock
	c.activeJobs++
	c.mu.Unlock()
	c.sched.jobStarted(job, pool)
	jr := &jobRun{job: job, ctx: ctx, base: base}

	// endJob publishes the terminal JobEnd exactly once — from the success
	// path or from the deferred failure handler — after flushing buffered
	// context events (node losses fired late in the job). A successful job
	// advances the shared clock to its own end if the clock is not already
	// past it (concurrent jobs overlap; the clock is the max of their ends);
	// an aborted job contributes no virtual time, as before.
	ended := false
	endJob := func(failErr error) {
		if ended {
			return
		}
		ended = true
		c.drainContextEvents(jr.now())
		var jc *JobCancelledError
		cancelled := errors.As(failErr, &jc)
		if cancelled {
			c.emit(jr.now(), &JobCancelled{Job: job, Action: action, RDD: final.name, Reason: jc.Reason})
		}
		end := &JobEnd{Job: job, Action: action, RDD: final.name, VirtualSeconds: jr.virt}
		switch {
		case cancelled:
			end.Cancelled = true
		case failErr != nil:
			end.Failed, end.Error = true, failErr.Error()
		}
		c.emit(jr.now(), end)
		c.mu.Lock()
		if failErr == nil && jr.now() > c.clock {
			c.clock = jr.now()
		}
		c.activeJobs--
		c.mu.Unlock()
		c.sched.jobEnded(job)
		if scope != nil {
			scope.spans = append(scope.spans, JobSpan{Job: job, Pool: pool, Action: action,
				StartVirtual: jr.base, EndVirtual: jr.now(), Failed: failErr != nil})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rdd: job %s(%s) failed: %v", action, final.name, r)
		}
		if err != nil {
			endJob(err)
		}
	}()

	bcast := c.chargeBroadcast()
	c.emit(base, &JobStart{Job: job, Action: action, RDD: final.name, Pool: pool, BroadcastSeconds: bcast})
	jr.virt += bcast

	resubmits := map[int]int{} // shuffle id → resubmissions so far
	completed := make([]bool, final.parts)
	var visitMu sync.Mutex

	// One DAG attempt: run every not-yet-done map stage bottom-up, then the
	// result tasks for partitions not yet visited. A fetch failure ends the
	// attempt early; the loop below reacts by resubmitting the map stage
	// that lost its outputs.
	attempt := func(round int) error {
		seen := map[int]bool{}
		var ensure func(n *node) error
		ensure = func(n *node) error {
			for _, sd := range n.stageShuffleDeps() {
				if seen[sd.id] {
					continue
				}
				seen[sd.id] = true
				sd := sd
				if err := func() error {
					// Serialise with concurrent jobs sharing this lineage: a
					// second job blocks here while the first runs the map
					// stage, then observes done and skips it (see
					// shuffleDep.runMu for why this cannot deadlock).
					sd.runMu.Lock()
					defer sd.runMu.Unlock()
					if sd.isDone() {
						return nil
					}
					if err := ensure(sd.parent); err != nil {
						return err
					}
					tasks := make([]*task, 0, sd.parent.parts)
					for p := 0; p < sd.parent.parts; p++ {
						if c.shuffle.has(sd.id, p) {
							continue
						}
						p := p
						tasks = append(tasks, &task{part: p, run: func(tc *taskContext) { sd.runMap(tc, p) }})
					}
					if err := c.runStage(jr, uint64(sd.id), round, sd.parent, tasks, resubmits[sd.id] > 0); err != nil {
						return err
					}
					// Only now is the shuffle complete; marking it done before
					// running would make a retried job skip recomputation and
					// read empty shuffle outputs.
					sd.setDone(true)
					return nil
				}(); err != nil {
					return err
				}
			}
			return nil
		}
		if err := ensure(final); err != nil {
			return err
		}
		tasks := make([]*task, 0, final.parts)
		for p := 0; p < final.parts; p++ {
			if completed[p] {
				continue
			}
			p := p
			tasks = append(tasks, &task{part: p, run: func(tc *taskContext) {
				v := eval(tc, p)
				visitMu.Lock()
				visit(p, v)
				completed[p] = true
				visitMu.Unlock()
			}})
		}
		return c.runStage(jr, 0, round, final, tasks, round > 0)
	}

	for round := 0; ; round++ {
		errAttempt := attempt(round)
		if errAttempt == nil {
			break
		}
		var ff *fetchFailedError
		if !errors.As(errAttempt, &ff) {
			return errAttempt
		}
		sd := findShuffleDep(final, ff.shuffle)
		if sd == nil {
			return errAttempt
		}
		resubmits[sd.id]++
		// After n failures the stage has attempted n times; allowing another
		// attempt requires n < maxStageAttempts.
		if resubmits[sd.id] >= maxStageAttempts {
			return &StageAbortedError{Stage: sd.parent.name, Shuffle: sd.id, Attempts: resubmits[sd.id], Cause: ff}
		}
		c.emit(jr.now(), &StageResubmitted{Job: job, Shuffle: sd.id, Attempt: resubmits[sd.id], Reason: ff.Error()})
		sd.setDone(false)
	}

	endJob(nil)
	return nil
}

// findShuffleDep locates the shuffle dependency with the given id anywhere
// in the lineage reachable from n (crossing shuffle boundaries).
func findShuffleDep(n *node, shuffle int) *shuffleDep {
	seen := map[int]bool{}
	var walk func(m *node) *shuffleDep
	walk = func(m *node) *shuffleDep {
		for ; m != nil && !seen[m.id]; m = m.narrowParent {
			seen[m.id] = true
			for _, sd := range m.shuffleIn {
				if sd.id == shuffle {
					return sd
				}
				if found := walk(sd.parent); found != nil {
					return found
				}
			}
		}
		return nil
	}
	return walk(n)
}

func isFetchFailure(err error) bool {
	var ff *fetchFailedError
	return errors.As(err, &ff)
}

// runStage places, executes, and accounts one stage, retrying failed task
// attempts (each on a freshly chosen executor) up to taskMaxFailures
// times. It returns a *fetchFailedError when a task found a map output
// missing — the caller resubmits the parent map stage — and a
// *TaskAbortedError when a task exhausted its attempts.
func (c *Context) runStage(jr *jobRun, stageID uint64, round int, stageRDD *node, tasks []*task, recovery bool) error {
	if len(tasks) == 0 {
		return nil
	}
	job := jr.job
	stageStart := jr.now()
	c.emit(stageStart, &StageSubmitted{Job: job, Stage: stageID, Round: round, RDD: stageRDD.name, NumTasks: len(tasks), Recovery: recovery})

	// loads balances placement by per-stage assignment counts; it threads
	// through every wave so retries still see the stage's load balance.
	loads := map[int]int{}
	var (
		failed      []*taskContext // failed attempts, kept for virtual accounting
		stageErr    error
		stageEvents []Event // executor exclusions, flushed before StageCompleted
	)
	wave := tasks
	for attempt := 1; len(wave) > 0 && stageErr == nil; attempt++ {
		type failure struct {
			t   *task
			ff  *fetchFailedError
			err error
		}
		var (
			wg     sync.WaitGroup
			failMu sync.Mutex
			fails  []failure
		)
		// A wave sees one immutable world: due failure plans fire and every
		// task is placed (preferring localities) here, and nothing the engine
		// does changes the live-executor set, the map-output table, or a
		// placement until the wave has drained.
		c.firePlans()
		c.mu.Lock()
		for _, t := range wave {
			t.executor = c.placeLocked(stageRDD.preferredExecutors(t.part), loads)
		}
		c.mu.Unlock()
		for _, t := range wave {
			if jr.ctx.Err() != nil {
				break // the job is cancelled: this is the next task boundary
			}
			wg.Add(1)
			c.workers <- struct{}{}
			tc := &taskContext{ctx: c, job: job, stage: stageID, round: round, part: t.part, attempt: attempt, executor: t.executor}
			t.tc = tc
			go func(t *task) {
				start := time.Now()
				defer func() {
					tc.computeSec = time.Since(start).Seconds()
					// The attempt's execution-memory grant dies with it,
					// success or failure — buffers and merge outputs are
					// consumed by the downstream cursor before the barrier.
					tc.releaseAllExecution()
					if r := recover(); r != nil {
						f := failure{t: t}
						if ff, ok := r.(*fetchFailedError); ok {
							f.ff = ff
							tc.failure = ff.Error()
						} else {
							f.err = fmt.Errorf("task %d (attempt %d) on executor %d: %v", t.part, attempt, t.executor, r)
							tc.failure = f.err.Error()
						}
						failMu.Lock()
						fails = append(fails, f)
						failMu.Unlock()
					} else {
						tc.ok = true
						c.mu.Lock()
						c.tasksDone++
						c.mu.Unlock()
					}
					<-c.workers
					wg.Done()
				}()
				c.maybeInjectCrash(tc)
				t.run(tc)
			}(t)
		}
		wg.Wait()

		// Deterministic post-mortem, in partition order: attribute failures to
		// executors, pick the error that escalates, build the retry wave.
		sort.Slice(fails, func(i, j int) bool { return fails[i].t.part < fails[j].t.part })
		var retry []*task
		for _, f := range fails {
			t := f.t
			noteFailure := func() {
				if ev := c.noteTaskFailure(t.executor); ev != nil {
					stageEvents = append(stageEvents, ev)
				}
			}
			switch {
			case f.ff != nil:
				// A fetch failure fails the stage, not the task: it does
				// not count against the attempt budget, and recovery means
				// resubmitting the parent map stage. Running siblings
				// finish first (their results are kept), as in Spark. An
				// injected loss destroys its victim only now, so every
				// sibling of the wave read the same map-output table.
				if f.ff.injected {
					c.shuffle.drop(f.ff.shuffle, f.ff.mapPart)
				}
				if stageErr == nil {
					stageErr = f.ff
				}
			case attempt >= taskMaxFailures:
				noteFailure()
				if stageErr == nil || isFetchFailure(stageErr) {
					stageErr = &TaskAbortedError{Stage: stageRDD.name, Part: t.part, Attempts: attempt, Cause: f.err}
				}
			default:
				noteFailure()
				retry = append(retry, t)
			}
			failed = append(failed, t.tc)
		}
		if stageErr != nil {
			break
		}
		if err := jr.ctx.Err(); err != nil {
			// Launched attempts (and their failures) are accounted as usual;
			// the stage then completes as cancelled and the job unwinds.
			stageErr = &JobCancelledError{Job: job, Reason: err.Error()}
			break
		}
		wave = retry
	}
	// Plans that came due during the last wave take hold before the next
	// stage (or the caller, after the job) looks at the cluster.
	c.firePlans()

	// Virtual accounting: greedy list scheduling of every attempt's duration
	// — successful and failed alike, both occupied core slots — on each
	// executor's slots; the stage barrier is the slowest executor. This pass
	// runs in deterministic order (partitions, then failed attempts in
	// post-mortem order), and it is where each attempt's buffered events are
	// flushed to the bus: TaskStart at the attempt's virtual launch, then the
	// events the task recorded while running (cache puts, evictions, fetch
	// failures), then TaskEnd with the attempt's metrics.
	// Each executor contributes only the job's arbitrated slot share for this
	// stage: all cores under FIFO or when the job runs alone, a weight- and
	// minShare-derived fraction when FAIR jobs overlap (see jobArbiter).
	totalSlots := c.cluster.TotalSlots()
	pools := map[int]slotPool{}
	poolFor := func(executor int) slotPool {
		pool, ok := pools[executor]
		if !ok {
			cores := c.cluster.Executor(executor).Cores
			pool = newSlotPool(c.sched.stageSlots(job, executor, cores, totalSlots))
			pools[executor] = pool
		}
		return pool
	}
	makespan := 0.0
	account := func(tc *taskContext, isRecovery bool) {
		dur := c.taskBaseDuration(tc) * c.stragglerSlowdown(tc)
		done := poolFor(tc.executor).run(dur)
		makespan = max(makespan, done)
		start, end := stageStart+done-dur, stageStart+done
		c.emit(start, &TaskStart{Job: job, Stage: stageID, Round: round, Part: tc.part, Attempt: tc.attempt, Executor: tc.executor})
		for _, ev := range tc.events {
			c.emit(end, ev)
		}
		c.emit(end, &TaskEnd{
			Job: job, Stage: stageID, Round: round, Part: tc.part, Attempt: tc.attempt, Executor: tc.executor,
			OK: tc.ok, Failure: tc.failure, Recovery: isRecovery,
			StartSec: start, DurationSec: dur, ComputeSec: tc.computeSec,
			Metrics: tc.m,
		})
	}
	// A task whose latest attempt failed, or that a cancelled job never
	// launched, has no success to account.
	for _, t := range tasks {
		if t.tc != nil && t.tc.ok {
			account(t.tc, recovery || t.tc.attempt > 1)
		}
	}
	for _, tc := range failed {
		account(tc, true)
	}
	// Node losses fired by plans during this stage, then executor exclusions,
	// land at the stage barrier — a deterministic log position.
	c.drainContextEvents(stageStart + makespan)
	for _, ev := range stageEvents {
		c.emit(stageStart+makespan, ev)
	}
	elapsed := makespan + c.cfg.StageOverheadSec
	done := &StageCompleted{Job: job, Stage: stageID, Round: round, RDD: stageRDD.name,
		NumTasks: len(tasks), FailedAttempts: len(failed), Seconds: elapsed}
	if stageErr != nil {
		done.Failed, done.Error = true, stageErr.Error()
	}
	c.emit(stageStart+elapsed, done)
	jr.virt += elapsed
	return stageErr
}

// firePlans triggers every scheduled failure whose task-count threshold has
// been reached. runStage calls it only at wave boundaries. Multiple queued
// plans fire in submission order, so chaos scripts can cascade failures.
func (c *Context) firePlans() {
	c.mu.Lock()
	var due []*failurePlan
	for _, fp := range c.failPlans {
		if !fp.fired && c.tasksDone >= fp.afterTasks {
			fp.fired = true
			due = append(due, fp)
		}
	}
	c.mu.Unlock()
	for _, fp := range due {
		// Best effort; failing the last live executor or node is refused.
		if fp.node >= 0 {
			_ = c.failNode(fp.node)
		} else {
			_ = c.FailExecutor(fp.executor)
		}
	}
}

// noteTaskFailure counts a task failure against the executor; reaching
// excludeAfterFailures takes the executor out of scheduling (Spark's
// blacklisting) and returns the ExecutorExcluded event for the caller to
// publish at a deterministic point. The last schedulable executor is never
// excluded.
func (c *Context) noteTaskFailure(executor int) *ExecutorExcluded {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.execFailures[executor]++
	if c.execFailures[executor] < excludeAfterFailures || c.excluded[executor] {
		return nil
	}
	for _, id := range c.cluster.LiveExecutors() {
		if id != executor && !c.excluded[id] {
			c.excluded[executor] = true
			return &ExecutorExcluded{Executor: executor, Failures: c.execFailures[executor]}
		}
	}
	return nil
}

// placeLocked picks an executor: the least-loaded live, non-excluded
// executor among the preferred set, else the least-loaded live non-excluded
// executor overall, breaking ties by id for determinism. If exclusion has
// disqualified every live executor, it yields to liveness. Caller holds c.mu.
func (c *Context) placeLocked(preferred []int, loads map[int]int) int {
	pick := func(cands []int, honourExclusion bool) (int, bool) {
		best, bestLoad := -1, int(^uint(0)>>1)
		for _, id := range cands {
			if !c.cluster.Live(id) || (honourExclusion && c.excluded[id]) {
				continue
			}
			if l := loads[id]; l < bestLoad {
				best, bestLoad = id, l
			}
		}
		return best, best >= 0
	}
	anyID, anyOK := pick(c.cluster.LiveExecutors(), true)
	if !anyOK {
		anyID, anyOK = pick(c.cluster.LiveExecutors(), false)
	}
	if !anyOK {
		panic("rdd: no live executors")
	}
	// Delay-scheduling semantics: take the preferred executor while it is no
	// more loaded than the best alternative; once locality would stack tasks
	// while other executors idle, fall through to the cluster-wide choice.
	if prefID, ok := pick(preferred, true); ok && loads[prefID] <= loads[anyID] {
		loads[prefID]++
		return prefID
	}
	loads[anyID]++
	return anyID
}

// The cost model's fixed rates, in the units their names carry.
const (
	diskMBps = 100 // local disk bandwidth per task
	netMBps  = 120 // network bandwidth per task
	memGBps  = 8   // memory bandwidth for local cache reads

	// kernelGops is the rate, in 10⁹ per second per task, at which the kernel
	// operations a task declared (Task.Charge) are charged. One operation is
	// one genotype met by one residual column; 7 of them per nanosecond is
	// what this repository's panel kernel measured at Monte Carlo's batch
	// width when the constant replaced a stopwatch (DESIGN.md §5 has the
	// derivation and what each call site counts).
	kernelGops = 7

	// parseMBps is the simulated end-to-end throughput of the text-ingestion
	// pipeline (HDFS text → line split → boxed records), charged per task on
	// DFS bytes read. 0.25 MB/s per task is calibrated from the paper itself:
	// its observed-statistic computation over a ~200 MB, 2-block genotype
	// file took 509 s (Table III, 0 iterations), i.e. ~0.25 MB/s per active
	// task on 2015-era JVM Spark — three orders of magnitude slower than its
	// cached-primitive arithmetic. Modelling the two costs separately is what
	// makes cache-versus-recompute shapes reproduce.
	parseMBps = 0.25
)

// The recovery policy, at Spark's defaults.
const (
	// taskMaxFailures is the number of times one task may fail before the job
	// aborts with a TaskAbortedError (task.maxFailures). Failed attempts are
	// retried on a freshly chosen executor.
	taskMaxFailures = 4

	// maxStageAttempts bounds how many times a map stage may run — the
	// initial attempt plus resubmissions after fetch failures — before the
	// job aborts with a StageAbortedError
	// (spark.stage.maxConsecutiveAttempts).
	maxStageAttempts = 4

	// excludeAfterFailures is the number of task failures on one executor
	// after which it is excluded from further scheduling.
	excludeAfterFailures = 2

	// stragglerFactor is the slowdown of an attempt the fault profile's
	// StragglerProb selects.
	stragglerFactor = 8
)

// taskBaseDuration converts a task's counted work — declared kernel operations
// and recorded I/O, nothing the host's clock said — into simulated seconds
// before the straggler slowdown: the duration the task would have run at the
// stage's normal rate.
func (c *Context) taskBaseDuration(tc *taskContext) float64 {
	cfg := c.cfg
	m := &tc.m
	const (
		diskBps = diskMBps * 1e6
		netBps  = netMBps * 1e6
		memBps  = memGBps * 1e9
	)

	dur := cfg.SchedOverheadSec +
		float64(m.Ops)/(kernelGops*1e9) +
		float64(m.DFSLocalBytes+m.DFSRemoteBytes)/(parseMBps*1e6) +
		float64(m.DFSLocalBytes)/diskBps +
		float64(m.DFSRemoteBytes)/netBps +
		float64(m.ShuffleLocalBytes)/diskBps +
		float64(m.ShuffleRemoteBytes)/netBps +
		float64(m.CacheLocalBytes)/memBps +
		float64(m.CacheDiskLocalBytes)/diskBps +
		float64(m.CacheRemoteBytes)/netBps +
		float64(m.ShipBytes)/netBps +
		float64(m.SpilledBytes)/diskBps // runs written under memory pressure

	// Modelled spill: the task's share of execution memory is the unified
	// pool's non-storage region divided over the executor's core slots; any
	// working set beyond it spills to disk and is read back. (Accounted
	// spills — SpilledBytes — are charged above from what the memory
	// manager actually denied; this heuristic covers narrow-stage working
	// sets the manager never sees.)
	exec := c.cluster.Executor(tc.executor)
	execMemPerSlot := float64(exec.MemBytes) * memoryFraction * (1 - storageFraction) / float64(exec.Cores)
	if ws := float64(m.workBytes()); ws > execMemPerSlot {
		dur += 2 * (ws - execMemPerSlot) / diskBps
	}
	return dur
}

// slotPool is the free-at times of one executor's core slots in a stage,
// all free at the stage's start. The virtual clock schedules greedily: each
// task in submission order takes the slot that frees first, as Spark's task
// scheduler fills executor cores, so a stage's makespan is the completion
// time of its last task.
type slotPool []float64

// newSlotPool returns a pool of n core slots, all free at time 0.
func newSlotPool(n int) slotPool {
	if n <= 0 {
		panic(fmt.Sprintf("rdd: slot pool with %d slots", n))
	}
	return make(slotPool, n)
}

// run schedules a task of the given duration on the slot that frees first
// and returns its completion time.
func (p slotPool) run(duration float64) float64 {
	if duration < 0 {
		panic(fmt.Sprintf("rdd: negative task duration %g", duration))
	}
	s := 0
	for i, free := range p {
		if free < p[s] {
			s = i
		}
	}
	p[s] += duration
	return p[s]
}
