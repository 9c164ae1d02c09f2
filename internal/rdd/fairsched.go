// Multi-job slot arbitration: the engine's counterpart of Spark's
// spark.scheduler.mode and fairscheduler.xml. A Context may now execute
// several jobs at once (the driver job server submits from concurrent
// goroutines); the arbiter decides how the cluster's virtual core slots are
// divided among them.
//
//   - FIFO (the default, Spark's default): jobs are admitted strictly in
//     submission order and run back-to-back — a job holds the whole cluster
//     until it ends, and later submissions block. Virtual time therefore
//     stacks sequentially, exactly as before this layer existed.
//   - FAIR: jobs are admitted immediately and run concurrently. Each named
//     pool owns a weight and a minShare (in core slots); the cluster's slots
//     are divided among the pools with active jobs in proportion to weight,
//     with every active pool first raised to its minShare, and a pool's share
//     is split evenly among its active jobs. Each stage of a job is then
//     accounted on that reduced per-executor slot count, so two equal-weight
//     jobs each see half the cluster and take ~2x their solo time while both
//     make progress.
//
// Determinism: task durations are counted work, never host time, so for one
// submitting goroutine JobMetrics.VirtualSeconds, every event's Time and the
// whole event log are functions of the Config — and under FIFO with several
// submitters they are functions of the Config and the admission order, since
// jobs never overlap. Concurrent FAIR jobs keep less: a job's *logical*
// execution — stage structure, placement, byte and operation counters, each
// task's DurationSec — depends only on its own lineage and the Config seed,
// never on what else is running, but its slot shares, and with them stage
// seconds, task start times and timestamps, depend on which jobs were active
// when each stage was accounted, which follows host timing. The
// fractional-slot rounding that shares force is broken by a seeded hash of
// (job, executor), not by map order, so a fixed seed and a fixed overlap
// replay the same virtual timeline.

package rdd

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// SchedulerMode selects how concurrent jobs share the cluster, as Spark's
// spark.scheduler.mode does.
type SchedulerMode int

const (
	// SchedFIFO runs jobs strictly back-to-back in submission order.
	SchedFIFO SchedulerMode = iota
	// SchedFAIR runs jobs concurrently, dividing core slots among pools by
	// weight and minShare.
	SchedFAIR
)

// String renders the mode the way Spark spells it.
func (m SchedulerMode) String() string {
	if m == SchedFAIR {
		return "FAIR"
	}
	return "FIFO"
}

// ParseSchedulerMode parses "fifo" or "fair" (any case).
func ParseSchedulerMode(s string) (SchedulerMode, error) {
	switch strings.ToLower(s) {
	case "fifo":
		return SchedFIFO, nil
	case "fair":
		return SchedFAIR, nil
	}
	return SchedFIFO, fmt.Errorf("rdd: unknown scheduler mode %q (want fifo or fair)", s)
}

// DefaultPool is the pool jobs run in when none is named, as with Spark's
// implicitly created "default" pool.
const DefaultPool = "default"

// PoolSpec declares one scheduling pool — one <pool> element of Spark's
// fairscheduler.xml.
type PoolSpec struct {
	Name string
	// Weight is the pool's share relative to other pools; zero selects 1.
	Weight int
	// MinShare is a floor, in core slots, the pool is raised to whenever it
	// has active jobs, regardless of weight. Zero means no floor.
	MinShare int
}

func (p PoolSpec) weight() float64 {
	if p.Weight <= 0 {
		return 1
	}
	return float64(p.Weight)
}

// SchedulerConfig configures multi-job arbitration on a Context.
type SchedulerConfig struct {
	Mode SchedulerMode
	// Pools declares the named pools a Submission can name. Jobs naming an
	// undeclared pool fall into an implicit weight-1 pool of that name, as
	// Spark creates pools with default parameters on first use.
	Pools []PoolSpec
}

// jobArbiter owns the admission queue and the share computation. One lives on
// every Context; under FIFO it degenerates to a ticket lock.
type jobArbiter struct {
	mode  SchedulerMode
	pools map[string]PoolSpec
	seed  uint64

	mu   sync.Mutex
	cond *sync.Cond

	nextTicket uint64 // next ticket to hand out
	serving    uint64 // FIFO: the ticket currently allowed to run

	// abandoned marks FIFO tickets whose submitter was cancelled while
	// queued; jobEnded skips them when passing the baton.
	abandoned map[uint64]bool

	// active maps running job id → pool name; activeByPool counts them.
	active       map[uint64]string
	activeByPool map[string]int
}

func newJobArbiter(cfg SchedulerConfig, seed uint64) *jobArbiter {
	a := &jobArbiter{
		mode:         cfg.Mode,
		pools:        map[string]PoolSpec{},
		seed:         seed,
		abandoned:    map[uint64]bool{},
		active:       map[uint64]string{},
		activeByPool: map[string]int{},
	}
	a.cond = sync.NewCond(&a.mu)
	for _, p := range cfg.Pools {
		if p.Name != "" {
			a.pools[p.Name] = p
		}
	}
	return a
}

func (a *jobArbiter) poolSpec(name string) PoolSpec {
	if p, ok := a.pools[name]; ok {
		return p
	}
	return PoolSpec{Name: name}
}

// admit blocks until the job may start, returning false if the submitter's
// context ended while it was still queued (its ticket is then abandoned and
// skipped by jobEnded). FIFO admits strictly in ticket order — one job at a
// time, so later submissions wait for every earlier job to end. FAIR admits
// immediately.
func (a *jobArbiter) admit(ctx context.Context) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ticket := a.nextTicket
	a.nextTicket++
	if a.mode != SchedFIFO || a.serving == ticket {
		return true
	}
	// Turn the context ending into a broadcast so the wait loop re-checks.
	// The callback needs a.mu, so it cannot slip in between the check and the
	// Wait below.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	for a.serving != ticket {
		if ctx.Err() != nil {
			a.abandoned[ticket] = true
			return false
		}
		a.cond.Wait()
	}
	return true
}

// jobStarted registers an admitted job as active in its pool.
func (a *jobArbiter) jobStarted(job uint64, pool string) {
	a.mu.Lock()
	a.active[job] = pool
	a.activeByPool[pool]++
	a.mu.Unlock()
}

// jobEnded removes the job and, under FIFO, passes the baton to the next
// ticket in line.
func (a *jobArbiter) jobEnded(job uint64) {
	a.mu.Lock()
	if pool, ok := a.active[job]; ok {
		delete(a.active, job)
		if a.activeByPool[pool]--; a.activeByPool[pool] == 0 {
			delete(a.activeByPool, pool)
		}
	}
	if a.mode == SchedFIFO {
		a.serving++
		for a.abandoned[a.serving] {
			delete(a.abandoned, a.serving)
			a.serving++
		}
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// slotFraction returns the share of the cluster's core slots the job may use
// right now: 1 under FIFO (jobs never overlap) or when the job runs alone,
// otherwise the FAIR share of its pool divided among the pool's active jobs.
// totalSlots is the live cluster slot count.
func (a *jobArbiter) slotFraction(job uint64, totalSlots int) float64 {
	if a.mode == SchedFIFO || totalSlots <= 0 {
		return 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	pool, ok := a.active[job]
	if !ok || len(a.active) <= 1 {
		return 1
	}
	// Weight-proportional shares over pools with active jobs, every active
	// pool first raised to its minShare (Spark's FairSchedulingAlgorithm
	// prioritises pools below minShare; raising the floor models that
	// steady state).
	var weightSum float64
	for name := range a.activeByPool {
		weightSum += a.poolSpec(name).weight()
	}
	spec := a.poolSpec(pool)
	share := float64(totalSlots) * spec.weight() / weightSum
	if min := float64(spec.MinShare); share < min {
		share = min
	}
	if share > float64(totalSlots) {
		share = float64(totalSlots)
	}
	frac := share / float64(a.activeByPool[pool]) / float64(totalSlots)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// stageSlots converts the job's current slot fraction into an integer slot
// count on one executor with the given core count. The fractional remainder
// is rounded up or down by a seeded hash of (job, executor) — a deterministic
// tie-break, so a fixed seed and job set produce the same virtual timeline —
// and the result is clamped to [1, cores] so every running job always owns at
// least one slot per executor it is placed on (no virtual starvation).
func (a *jobArbiter) stageSlots(job uint64, executor, cores, totalSlots int) int {
	frac := a.slotFraction(job, totalSlots)
	exact := float64(cores) * frac
	slots := int(exact)
	if rem := exact - float64(slots); rem > 0 && a.tieDraw(job, executor) < rem {
		slots++
	}
	if slots < 1 {
		slots = 1
	}
	if slots > cores {
		slots = cores
	}
	return slots
}

// tieDraw is a uniform [0,1) draw that depends only on the seed, the job, and
// the executor — never on scheduling order.
func (a *jobArbiter) tieDraw(job uint64, executor int) float64 {
	h := mix64(a.seed ^ mix64(job+0x51ed) ^ mix64(uint64(executor)+0x9e3779b97f4a7c15))
	return float64(h>>11) / float64(1<<53)
}

// ---- the submission scope ----
//
// Spark attributes a job to a pool, and to a cancellable job group, through
// thread-local properties set on the submitting thread. The Go analogue is one
// value per submitting goroutine: Submit installs it for the duration of a
// closure, and every action invoked inside — on the same goroutine, however
// deep the call chain — submits its job under it.

// Submission is everything a caller says about the jobs it is about to
// submit. The zero value is what a job outside any Submit runs under.
type Submission struct {
	// Context cancels the scope's jobs: when it is done (deadline, explicit
	// cancel, or — in an HTTP handler — the client disconnecting), a queued
	// job is abandoned and a running one stops at its next task boundary;
	// either way the action returns a *JobCancelledError whose Reason is
	// Context.Err(). Nil means context.Background().
	Context context.Context
	// Pool names the scheduling pool the jobs are assigned to; empty means
	// DefaultPool.
	Pool string
}

// JobSpan is one job's position on the virtual clock, reported by Submit:
// the serving layer uses it to measure per-request virtual-time latency
// (queue wait shows up as StartVirtual minus the clock at submission).
type JobSpan struct {
	Job          uint64
	Pool         string
	Action       string
	StartVirtual float64 // virtual clock when the job was admitted
	EndVirtual   float64 // virtual clock at its JobEnd
	Failed       bool
}

// submitScope is a Submission in force on one goroutine, defaults filled in,
// plus the spans of the jobs that ended under it. Only that goroutine touches
// it: runJob looks it up and appends to it on the goroutine that called the
// action.
type submitScope struct {
	Submission
	spans []JobSpan
}

// Submit runs fn with every job it submits (from this goroutine) governed by
// s, and returns the virtual-time spans of those jobs in completion order. A
// nested Submit replaces the outer scope — nothing is inherited — and the
// outer scope is restored on return.
func (c *Context) Submit(s Submission, fn func() error) ([]JobSpan, error) {
	sc := &submitScope{Submission: s}
	if sc.Context == nil {
		sc.Context = context.Background()
	}
	if sc.Pool == "" {
		sc.Pool = DefaultPool
	}
	g := gid()
	outer, nested := c.scopes.Swap(g, sc)
	defer func() {
		if nested {
			c.scopes.Store(g, outer)
		} else {
			c.scopes.Delete(g)
		}
	}()
	err := fn()
	return sc.spans, err
}

// gid returns the current goroutine's id, parsed from the runtime stack
// header ("goroutine N [running]:"). It is the standard trick for
// thread-local-like properties; the cost (~2.5µs) is paid once per Submit and
// once per job, never per task.
func gid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := buf[:n]
	b = b[len("goroutine "):]
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("rdd: cannot parse goroutine id from %q", buf[:n]))
	}
	return id
}
