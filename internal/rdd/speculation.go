// Speculative execution: the engine's counterpart of spark.speculation.
//
// Spark's TaskSetManager watches running tasks once spark.speculation.quantile
// of a stage has finished, and re-launches any task running slower than
// spark.speculation.multiplier × the stage's median on another executor; the
// first attempt to finish wins and the loser is killed. The simulator plays
// the same policy on the virtual clock, with one twist required by the
// determinism contract: "running slower than multiplier × the median" is
// decided from the task's *injected slowdown factor* (a pure function of the
// fault draws) rather than from task durations — the simulator's analogue of
// the rate-based (efficiency) speculation heuristic Spark 3.x added, which
// compares process rates instead of raw runtimes. Structural decisions —
// which tasks are speculated, where copies land, which attempt wins — and
// the timestamps they happen at replay bit-for-bit for a fixed Config.
//
// The copy runs at the task's un-slowed base duration: it lands on a
// different executor, escaping whatever host-local pathology made the
// original drag — the premise of speculation. It therefore wins whenever it
// does not crash (the race is resolved structurally, not by comparing float
// timestamps, so a last-digit rounding can never flip a kill into a win); the
// original is killed at the copy's completion time, truncating its span.
// Copies occupy their executor's arbitrated slot share for the stage like any
// other attempt, so under FAIR scheduling speculation spends the job's own
// slots, not the cluster's.

package rdd

import (
	"math"
	"sort"

	"sparkscore/internal/simtime"
)

// When and what to speculate, at Spark's defaults: copies may launch once
// speculationQuantile of a stage's tasks are projected complete
// (spark.speculation.quantile), for tasks running more than
// speculationMultiplier times slower than the stage's median
// (spark.speculation.multiplier).
const (
	speculationQuantile   = 0.75
	speculationMultiplier = 1.5
)

// attemptSched is one attempt's position in the stage's virtual schedule,
// built in phase one of the accounting pass and emitted in phase three.
type attemptSched struct {
	t        *task
	recovery bool
	base     float64 // duration before the straggler slowdown
	slow     float64 // straggler slowdown factor (1 when healthy)
	dur      float64 // full duration = base × slow
	done     float64 // stage-relative completion if the attempt runs to the end
	effDone  float64 // actual completion: done, or the copy's end when killed
	copy     *specCopy
}

// specCopy is the speculative copy racing an original attempt.
type specCopy struct {
	executor int
	crashed  bool // the copy hit its own injected-crash draw
	dur      float64
	done     float64 // stage-relative completion
}

// planSpeculation runs the speculation policy over a stage's scheduled
// attempts, reserving slots for copies via poolFor and truncating killed
// originals. Everything it decides is a pure function of the Config and the
// stage's deterministic attempt list.
func (c *Context) planSpeculation(job, stage uint64, round int, scheds []*attemptSched, poolFor func(int) *simtime.SlotPool) {
	if !c.cfg.Speculation.Enabled {
		return
	}
	// Only successful original attempts are raced; failed attempts are the
	// retry mechanism's problem, and racing them would double-charge.
	var oks []*attemptSched
	for _, s := range scheds {
		if s.t.ok {
			oks = append(oks, s)
		}
	}
	if len(oks) < 2 {
		return // a one-task stage has no meaningful median
	}

	bases := make([]float64, len(oks))
	for i, s := range oks {
		bases[i] = s.base
	}
	sort.Float64s(bases)
	median := bases[len(bases)/2]

	// The quantile gate: copies may not start before the time the
	// quantile-th task is projected to finish at the stage's normal rate
	// (spark.speculation.quantile delays checks until that share finished).
	ends := make([]float64, len(oks))
	for i, s := range oks {
		ends[i] = s.done - s.dur + s.base
	}
	sort.Float64s(ends)
	qi := int(math.Ceil(speculationQuantile*float64(len(ends)))) - 1
	if qi < 0 {
		qi = 0
	}
	tq := ends[qi]

	// Copies land on the least-loaded live, non-excluded executor other than
	// the original's. Loads count the attempts scheduled this stage plus
	// copies placed so far — a deterministic tally (the stage's own schedule),
	// with ties broken by lowest id.
	c.mu.Lock()
	var cands []int
	for _, id := range c.cluster.LiveExecutors() {
		if !c.excluded[id] {
			cands = append(cands, id)
		}
	}
	c.mu.Unlock()
	sort.Ints(cands)
	specLoads := map[int]int{}
	for _, s := range scheds {
		specLoads[s.t.executor]++
	}

	for _, s := range oks {
		if s.slow <= speculationMultiplier {
			continue // running within multiplier× the stage norm
		}
		target, found := -1, false
		for _, id := range cands {
			if id == s.t.executor {
				continue
			}
			if !found || specLoads[id] < specLoads[target] {
				target, found = id, true
			}
		}
		if !found {
			continue // nowhere else to run a copy
		}
		// Detection time: the straggler has run multiplier× the median —
		// the earliest moment the policy can tell it is slow — further gated
		// by the stage quantile.
		start := s.done - s.dur
		ready := math.Max(tq, start+speculationMultiplier*median)
		crashed := c.specCrashes(job, stage, round, s.t.part, s.t.attempt)
		dur := s.base
		if crashed {
			// An injected crash kills the copy at launch; it occupies its
			// slot only for the scheduling overhead.
			dur = c.cfg.SchedOverheadSec
		}
		done := poolFor(target).Run(ready, dur)
		s.copy = &specCopy{executor: target, crashed: crashed, dur: dur, done: done}
		specLoads[target]++
		if !crashed {
			// First result wins: the surviving copy finishes first (it runs
			// un-slowed while the original drags), so the original is killed
			// at the copy's completion.
			s.effDone = done
		}
	}
}

// specCrashes draws the injected-crash decision for a speculative copy. The
// draw uses its own fault kind, so a copy crashing is independent of — and
// never double-counts against — the original attempt sequence bounded by
// taskMaxFailures.
func (c *Context) specCrashes(job, stage uint64, round, part, attempt int) bool {
	p := c.cfg.Faults.TaskCrashProb
	if p <= 0 {
		return false
	}
	return c.faultDraw(faultSpecCrash, job, stage, uint64(round), uint64(part), uint64(attempt)) < p
}
