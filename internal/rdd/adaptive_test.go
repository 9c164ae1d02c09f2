// The adaptive-execution parity property: for ANY plan — any partition
// geometry, any byte skew, speculation on or off, chaos or not — the adaptive
// planner must be invisible in the results. Coalescing replays member
// partitions in partition order and skew splitting replays prefetched map
// outputs in map-output order, so the pair stream every reduce partition
// folds is identical to the static plan's; these tests pin that with 1000
// seeded random plans (fewer under -short) plus targeted unit cases for the
// planner's cut-point arithmetic. The skew policy is constants (adaptive.go),
// so the plans reach both sides of it by shape: a size hint large enough
// makes a hot partition "skewed" without allocating it, and the map-side
// partition count bounds the sub-splits.

package rdd

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sparkscore/internal/cluster"
)

// randomPlan is one property-test case: a workload shape plus the fault,
// speculation, and adaptive knobs it runs under.
type randomPlan struct {
	seed        uint64
	elems       int
	mapParts    int
	reduceParts int
	hint        int64
	hotPct      int // percent of pairs on one hot key; 0 = uniform
	coldKeys    int
	group       bool // GroupByKey instead of ReduceByKey
	faults      FaultProfile
	spec        SpeculationConfig
	adaptive    AdaptiveConfig // Enabled overridden per run
}

// makeRandomPlan derives case i deterministically, mixing skew, partition
// dust, chaos, and speculation so the parity claim is exercised across the
// whole plan space rather than the comfortable corner.
func makeRandomPlan(i int) randomPlan {
	rng := rand.New(rand.NewSource(int64(i)*2654435761 + 97))
	p := randomPlan{
		seed:        uint64(rng.Int63()),
		elems:       40 + rng.Intn(360),
		mapParts:    2 + rng.Intn(7),
		reduceParts: 1 + rng.Intn(10),
		hint:        []int64{8, 512, 4096, 64 << 10, 256 << 10, 1 << 20}[rng.Intn(6)],
		coldKeys:    4 + rng.Intn(60),
		group:       rng.Intn(2) == 0,
		adaptive: AdaptiveConfig{
			TargetPartitionBytes: []int64{4 << 10, 64 << 10, 64 << 20}[rng.Intn(3)],
		},
	}
	switch rng.Intn(4) {
	case 0:
		p.hotPct = 50
	case 1:
		p.hotPct = 90
	case 2:
		p.hotPct = 97
	}
	if rng.Intn(2) == 0 { // chaos: probability-keyed faults replay identically
		p.faults = FaultProfile{
			TaskCrashProb:    []float64{0, 0.02}[rng.Intn(2)],
			FetchFailureProb: []float64{0, 0.02}[rng.Intn(2)],
		}
	}
	if rng.Intn(3) == 0 {
		p.faults.StragglerProb = 0.2
	}
	if rng.Intn(2) == 0 {
		p.spec = SpeculationConfig{Enabled: true}
	}
	return p
}

// planConfig is the engine configuration plan p runs under, planner on or off.
func planConfig(p randomPlan, enabled bool) Config {
	acfg := p.adaptive
	acfg.Enabled = enabled
	return Config{
		Cluster:          concTestCluster(),
		Seed:             p.seed,
		Faults:           p.faults,
		Speculation:      p.spec,
		Adaptive:         acfg,
		StageOverheadSec: 1e-4,
		SchedOverheadSec: 1e-4,
	}
}

// planDigest runs the plan's workload on c and renders the collected result
// (or the job's error) as a string.
func planDigest(c *Context, p randomPlan) string {
	base := Parallelize(c, seq(p.elems), p.mapParts)
	hot, cold := p.hotPct, p.coldKeys
	pairs := Map(base, "pairs", func(i int) KV[int, int] {
		if i%100 < hot {
			return KV[int, int]{K: 0, V: i}
		}
		return KV[int, int]{K: 1 + i%cold, V: i}
	}).SetSizeHint(p.hint)
	if p.group {
		return render(Collect(GroupByKey(pairs, p.reduceParts)))
	}
	return render(Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, p.reduceParts)))
}

// runPlan executes the plan once and returns the collected result rendered as
// a string, the job skeleton (each JobStart and JobEnd without its clock
// fields, which the two modes legitimately disagree on), and the full event
// log.
//
// The full log is comparable only between runs of the SAME mode: adaptive
// runs charge the hot partition's fetch bytes to prefetch executors, so task
// byte counters legitimately differ from the static plan. The cross-mode
// contract is the result digest plus the job skeleton.
func runPlan(t *testing.T, p randomPlan, enabled bool) (digest, skeleton, full string) {
	t.Helper()
	var buf bytes.Buffer
	elw := NewEventLogWriter(&buf)
	cfg := planConfig(p, enabled)
	var skel strings.Builder
	cfg.Listeners = []Listener{elw, ListenerFunc(func(ev Event) {
		switch e := ev.(type) {
		case *JobStart:
			fmt.Fprintf(&skel, "start %d %s %s pool=%s\n", e.Job, e.Action, e.RDD, e.Pool)
		case *JobEnd:
			fmt.Fprintf(&skel, "end %d %s %s failed=%v %q cancelled=%v\n", e.Job, e.Action, e.RDD, e.Failed, e.Error, e.Cancelled)
		}
	})}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest = planDigest(c, p)
	if err := elw.Close(); err != nil {
		t.Fatal(err)
	}
	return digest, skel.String(), buf.String()
}

func render[T any](out []T, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v", out)
}

// TestAdaptiveParityProperty is the property suite: across 1000 seeded random
// plans, the adaptive and static schedules must produce byte-identical
// results and job skeletons, and the adaptive schedule itself must replay
// bit-for-bit under the same seed whatever Config.Workers is (the Workers
// matrix runs on a sample of plans — fifteen more runs per plan everywhere
// would multiply the suite's cost for no extra coverage).
func TestAdaptiveParityProperty(t *testing.T) {
	plans := 1000
	if testing.Short() {
		plans = 120
	}
	split, coalesced := 0, 0
	for i := 0; i < plans; i++ {
		p := makeRandomPlan(i)
		staticDigest, staticSkel, _ := runPlan(t, p, false)
		adaptDigest, adaptSkel, adaptFull := runPlan(t, p, true)
		if strings.HasPrefix(staticDigest, "error:") || strings.HasPrefix(adaptDigest, "error:") {
			// A job abort (task exhausting its attempts under chaos) is a
			// legal outcome, but its timing is mode-dependent; parity is a
			// claim about produced results.
			continue
		}
		if staticDigest != adaptDigest {
			t.Fatalf("plan %d (%+v): adaptive result diverged from static\nstatic:   %.200s\nadaptive: %.200s",
				i, p, staticDigest, adaptDigest)
		}
		if staticSkel != adaptSkel {
			t.Fatalf("plan %d (%+v): job skeleton diverged\nstatic:\n%s\nadaptive:\n%s", i, p, staticSkel, adaptSkel)
		}
		if strings.Contains(adaptFull, `"subSplits":`) {
			split++
		}
		if strings.Contains(adaptFull, `"coalescedGroups":`) {
			coalesced++
		}
		if i%8 == 0 {
			obs := workersMatrix(t, planConfig(p, true), func(c *Context) string { return planDigest(c, p) })
			if obs.Result != adaptDigest || obs.Log != adaptFull {
				t.Fatalf("plan %d (%+v): the default-Workers adaptive run is not the matrix's run:\n%s",
					i, p, firstDiffLines(adaptFull, obs.Log))
			}
		}
	}
	// The skew policy is fixed, so it is the shapes that must reach it: a
	// suite in which the planner rarely rewrote anything compares the static
	// schedule with itself.
	if split < plans/10 || coalesced < plans/4 {
		t.Fatalf("of %d plans only %d split a skewed partition and %d coalesced; the parity claim is close to vacuous",
			plans, split, coalesced)
	}
}

// TestAdaptiveDisabledLogsUnchanged pins that the default configuration emits
// no adaptive events at all: a log written with the planner off must be
// byte-identical to one from a build that never heard of adaptive execution,
// so archived logs stay comparable.
func TestAdaptiveDisabledLogsUnchanged(t *testing.T) {
	p := makeRandomPlan(3)
	p.faults = FaultProfile{}
	p.spec = SpeculationConfig{}
	_, _, full := runPlan(t, p, false)
	for _, banned := range []string{"AdaptivePlan", "prefetch", "\"sub\""} {
		if strings.Contains(full, banned) {
			t.Errorf("planner-off log contains %q:\n%s", banned, firstDiffLines(full, ""))
		}
	}
}

// TestSplitByteRanges pins the skew splitter's cut-point arithmetic: every
// map output lands in exactly one range, ranges are contiguous and ordered,
// and the split count never exceeds the requested k or the map-output count.
func TestSplitByteRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(12)
		perMap := make([]int64, n)
		for i := range perMap {
			perMap[i] = int64(rng.Intn(1 << 16))
		}
		ranges := splitByteRanges(perMap, k)
		if len(ranges) == 0 || len(ranges) > k || len(ranges) > n {
			t.Fatalf("trial %d: %d ranges for n=%d k=%d", trial, len(ranges), n, k)
		}
		next := 0
		for _, rg := range ranges {
			if rg.lo != next || rg.hi <= rg.lo {
				t.Fatalf("trial %d: ranges not a contiguous partition of [0,%d): %+v", trial, n, ranges)
			}
			next = rg.hi
		}
		if next != n {
			t.Fatalf("trial %d: ranges cover [0,%d) of [0,%d): %+v", trial, next, n, ranges)
		}
	}
}

// TestAdaptiveConfigValidate pins the config gate.
func TestAdaptiveConfigValidate(t *testing.T) {
	good := []AdaptiveConfig{
		{},
		{Enabled: true},
		{Enabled: true, TargetPartitionBytes: 1 << 20},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d: unexpected error %v", i, err)
		}
	}
	if err := (AdaptiveConfig{TargetPartitionBytes: -1}).Validate(); err == nil {
		t.Error("negative TargetPartitionBytes accepted")
	}
}

// TestAdaptiveSkewSplitHappens is the positive control for the property
// suite: with a hot partition far past the skew threshold the planner must
// actually split (an AdaptivePlan event with the hot partition listed), so
// the parity above is not vacuously comparing two static schedules.
func TestAdaptiveSkewSplitHappens(t *testing.T) {
	var plans []*AdaptivePlan
	probe := ListenerFunc(func(ev Event) {
		if e, ok := ev.(*AdaptivePlan); ok {
			plans = append(plans, e)
		}
	})
	c, err := New(Config{
		Cluster: cluster.Config{
			Nodes: 2, Spec: cluster.NodeSpec{Name: "skew", VCPUs: 8, MemGiB: 8},
			ExecutorsPerNode: 2, CoresPerExecutor: 4, MemPerExecutorGiB: 2,
		},
		Seed:      5,
		Adaptive:  AdaptiveConfig{Enabled: true},
		Listeners: []Listener{probe},
	})
	if err != nil {
		t.Fatal(err)
	}
	// GroupByKey, not ReduceByKey: map-side combine would collapse each map
	// task's hot pairs to one and erase the byte skew being provoked.
	pairs := Map(Parallelize(c, seq(2000), 8), "hot", func(i int) KV[int, int] {
		if i%10 != 0 {
			return KV[int, int]{K: 0, V: 1}
		}
		return KV[int, int]{K: 1 + i%7, V: 1}
	}).SetSizeHint(4096)
	out, err := Collect(GroupByKey(pairs, 8))
	if err != nil {
		t.Fatal(err)
	}
	hotLen := -1
	for _, kv := range out {
		if kv.K == 0 {
			hotLen = len(kv.V)
		}
	}
	if hotLen != 1800 {
		t.Fatalf("hot key group has %d values, want 1800", hotLen)
	}
	if len(plans) == 0 {
		t.Fatal("no AdaptivePlan emitted for a 9:1 skewed shuffle")
	}
	split := false
	for _, p := range plans {
		split = split || (len(p.Skewed) > 0 && p.SubSplits > 1)
	}
	if !split {
		t.Fatalf("planner never split the hot partition: %+v", plans)
	}
}

// TestAdaptiveStaticPlanWhenMapOutputLost loses a node between the map stage
// and planning. The planner reads the map-output table, which now has holes,
// so that round runs the static plan; its fetch failure resubmits the map
// stage, and the next round plans from the repaired table. The result is the
// undisturbed run's, and the whole sequence replays bit for bit.
func TestAdaptiveStaticPlanWhenMapOutputLost(t *testing.T) {
	const mapParts = 8
	work := func(c *Context) string {
		pairs := Map(Parallelize(c, seq(2000), mapParts), "hot", func(i int) KV[int, int] {
			if i%10 != 0 {
				return KV[int, int]{K: 0, V: i}
			}
			return KV[int, int]{K: 1 + i%7, V: i}
		}).SetSizeHint(4096)
		return render(Collect(GroupByKey(pairs, 8)))
	}
	cfg := Config{
		Cluster:  cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		Seed:     5,
		Adaptive: AdaptiveConfig{Enabled: true},
	}
	undisturbed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := work(undisturbed)

	// The plan comes due when the map stage's last task ends and fires at the
	// stage's closing wave boundary — after the outputs were registered,
	// before the consuming stage is planned.
	cfg.Faults = FaultProfile{NodeLoss: []NodeLoss{{Node: 0, AfterTasks: mapParts}}}
	obs := workersMatrix(t, cfg, work)
	if obs.Result != want {
		t.Fatalf("result changed by the node loss:\n%.200s\nwant\n%.200s", obs.Result, want)
	}
	events, err := ReadEventLog(strings.NewReader(obs.Log))
	if err != nil {
		t.Fatal(err)
	}
	resubmitted, planRounds := false, []int{}
	for _, ev := range events {
		switch e := ev.(type) {
		case *StageResubmitted:
			resubmitted = true
		case *AdaptivePlan:
			planRounds = append(planRounds, e.Round)
		}
	}
	if !resubmitted {
		t.Fatal("no map stage was resubmitted: the node loss took no map output, so the test proves nothing")
	}
	if len(planRounds) == 0 || planRounds[0] == 0 {
		t.Fatalf("AdaptivePlan rounds %v: want none in round 0 (holes in the table mean the static plan) and one after the repair", planRounds)
	}
}
