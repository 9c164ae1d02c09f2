// Package rdd is the Spark stand-in: resilient distributed datasets with lazy
// lineage, narrow and shuffle transformations, explicit in-memory caching,
// broadcast variables, and a stage-splitting scheduler that executes tasks on
// a simulated YARN cluster.
//
// Execution is two-layered. Every task runs *for real* on the host (results
// are exact, and cache hits versus lineage recomputation are real code
// paths), while the scheduler charges each task a simulated duration — the
// kernel operations it declared plus modelled scheduling, HDFS, shuffle, and
// spill costs, all counted, none timed — and plays those durations onto the
// virtual core slots of the configured cluster. Context.VirtualTime is the
// cluster wall clock the benchmarks report: for one submitting goroutine it
// is a function of the Config, the same on every host and every run.
package rdd

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"sparkscore/internal/cluster"
	"sparkscore/internal/dfs"
	"sparkscore/internal/rng"
)

// Config assembles a simulated cluster and its cost model.
type Config struct {
	Cluster cluster.Config

	// DFSBlockSize is the HDFS stand-in's block size — and so the partition
	// size of a TextSplits read that asks for no more partitions than there
	// are blocks, as the genotype source does; zero selects the dfs package
	// default. Blocks are replicated three ways, HDFS's default.
	DFSBlockSize int

	// Seed drives every random decision in the simulation (replica
	// placement, tie-breaking); identical configurations replay identically.
	Seed uint64

	// Workers caps host-side parallelism of real task execution; zero
	// selects runtime.NumCPU(). Results, the virtual clock and event logs do
	// not depend on it (DESIGN.md §7 names the one exception: spill points
	// under a capped memory pool shared by concurrent tasks).
	Workers int

	// Cost model. Zero values select the defaults noted per field; the
	// rates and memory fractions the model also uses are constants (see
	// taskBaseDuration and newMemoryManager).
	SchedOverheadSec float64 // per-task launch/serialisation overhead (0.004)
	StageOverheadSec float64 // per-stage DAG/committer overhead (0.05)

	// Faults configures deterministic fault injection; the zero value
	// injects nothing. Every decision derives from Seed, so chaos runs
	// replay bit-for-bit.
	Faults FaultProfile

	// Scheduler configures multi-job arbitration (Spark's
	// spark.scheduler.mode and fairscheduler.xml). The zero value is FIFO
	// with no named pools: concurrent submissions run back-to-back in
	// arrival order, and a lone submitter observes exactly the old
	// single-job behaviour.
	Scheduler SchedulerConfig

	// Listeners are registered on the context's listener bus at creation,
	// after the built-in metrics listener, and receive every scheduler event
	// (see Event) synchronously in deterministic order. AddListener registers
	// more later.
	Listeners []Listener
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SchedOverheadSec == 0 {
		c.SchedOverheadSec = 0.004
	}
	if c.StageOverheadSec == 0 {
		c.StageOverheadSec = 0.05
	}
	return c
}

// Context is the driver: it owns the cluster, the file system, the block and
// shuffle managers, the virtual clock, and the lineage graph id space. It
// plays the role of SparkContext in Figure 1's stack (Spark application over
// the execution engine over YARN over HDFS).
type Context struct {
	cfg     Config
	cluster *cluster.Cluster
	fs      *dfs.FS
	blocks  *memoryManager
	shuffle *shuffleManager

	// faults is the dedicated fault-injection stream; it is split per
	// decision point and never advanced, so draws are order-insensitive.
	faults *rng.RNG

	// bus delivers scheduler events; metrics is the built-in listener that
	// reconstructs JobMetrics from them (always registered first).
	bus     *listenerBus
	metrics *metricsListener

	// sched arbitrates cluster slots among concurrently running jobs.
	sched *jobArbiter

	// scopes holds the *submitScope each goroutine inside a Submit call is
	// submitting under, keyed by goroutine id — the Go analogue of Spark's
	// thread-local job properties.
	scopes sync.Map

	mu            sync.Mutex
	clock         float64
	nextNodeID    int
	nextShuffleID int
	nextJobID     uint64
	pendingBcast  int64 // broadcast bytes not yet charged to a job

	// activeJobs and pendingEvents buffer context-level events (node losses)
	// raised while a job runs, so they reach the bus at a deterministic
	// position (the next stage barrier) rather than mid-wave.
	activeJobs    int
	pendingEvents []Event

	tasksDone int64 // lifetime completed tasks, drives failure plans
	failPlans []*failurePlan

	// storageEpoch counts storage-loss events (executor and node failures).
	// Result caches keyed on lineage fingerprints record the epoch they were
	// computed under and treat any bump as invalidation, since the loss may
	// have dropped blocks the cached result depended on.
	storageEpoch uint64

	// execFailures counts task failures per executor; reaching
	// excludeAfterFailures moves the executor into excluded.
	execFailures map[int]int
	excluded     map[int]bool

	workers chan struct{} // host-side execution semaphore
}

// failurePlan is one scheduled failure: an executor loss (node < 0) or a
// whole-node loss, fired once the lifetime completed-task count reaches
// afterTasks.
type failurePlan struct {
	executor   int
	node       int // -1 for executor plans
	afterTasks int64
	fired      bool
}

// validate rejects configurations that can only be mistakes, before any of
// their values feed a probability draw or a slot computation.
func (c Config) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("rdd: Workers %d is negative", c.Workers)
	}
	// A negative overhead would run the virtual clock backwards.
	for _, o := range []struct {
		name string
		sec  float64
	}{{"SchedOverheadSec", c.SchedOverheadSec}, {"StageOverheadSec", c.StageOverheadSec}} {
		if !(o.sec >= 0) || math.IsInf(o.sec, 1) {
			return fmt.Errorf("rdd: %s %v is not a finite, non-negative number of seconds", o.name, o.sec)
		}
	}
	return c.Faults.Validate()
}

// New builds a driver context over a fresh cluster and file system.
func New(cfg Config) (*Context, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(cl.Nodes(), cfg.DFSBlockSize, 0, cfg.Seed^0xd1f5)
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		cfg:          cfg,
		cluster:      cl,
		fs:           fs,
		shuffle:      newShuffleManager(),
		faults:       rng.New(cfg.Seed ^ 0xfa17),
		execFailures: map[int]int{},
		excluded:     map[int]bool{},
		workers:      make(chan struct{}, cfg.Workers),
		bus:          &listenerBus{},
		metrics:      newMetricsListener(),
		sched:        newJobArbiter(cfg.Scheduler, cfg.Seed),
	}
	ctx.bus.add(ctx.metrics)
	for _, l := range cfg.Listeners {
		if l != nil {
			ctx.bus.add(l)
		}
	}
	ctx.blocks = newMemoryManager(cl, memoryFraction, storageFraction)
	ctx.shuffle.mem = ctx.blocks
	ctx.shuffle.fs = fs
	for _, nl := range cfg.Faults.NodeLoss {
		ctx.failNodeAfter(nl.Node, nl.AfterTasks)
	}
	return ctx, nil
}

// FS exposes the simulated HDFS so callers can stage input files.
func (c *Context) FS() *dfs.FS { return c.fs }

// VirtualTime returns the simulated seconds elapsed across all jobs so far.
func (c *Context) VirtualTime() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// ResetClock zeroes the virtual clock (between benchmark repetitions).
func (c *Context) ResetClock() {
	c.mu.Lock()
	c.clock = 0
	c.mu.Unlock()
	c.metrics.reset()
}

// Jobs returns metrics for every job run so far (since the last ResetClock),
// as reconstructed from scheduler events by the built-in metrics listener.
func (c *Context) Jobs() []JobMetrics {
	return c.metrics.snapshot()
}

// JobCount is len(Jobs()) without copying the history: how many jobs have
// completed since the last ResetClock.
func (c *Context) JobCount() int {
	return c.metrics.count()
}

// AddListener registers a bus listener after construction; it receives every
// subsequent scheduler event. Config.Listeners registers at creation.
func (c *Context) AddListener(l Listener) {
	if l != nil {
		c.bus.add(l)
	}
}

// FailExecutor kills an executor immediately: its cached blocks are lost and
// future tasks are placed elsewhere. Shuffle outputs survive, as with
// Spark's external shuffle service on YARN. Exported as a fault hook:
// server_test.go injects storage loss through it from outside the package.
func (c *Context) FailExecutor(id int) error {
	if err := c.cluster.Fail(id); err != nil {
		return err
	}
	c.blocks.dropExecutor(id)
	c.bumpStorageEpoch()
	return nil
}

// failNode kills a whole machine: every executor on it dies with its cached
// blocks, the node's shuffle outputs are destroyed (unlike an executor loss,
// a machine loss takes the external shuffle service down with it), and the
// node's DFS replicas disappear. Jobs recover by re-placing tasks,
// recomputing lost cache from lineage, and resubmitting map stages whose
// outputs are gone.
func (c *Context) failNode(node int) error {
	ids, err := c.cluster.FailNode(node)
	if err != nil {
		return err
	}
	for _, id := range ids {
		c.blocks.dropExecutor(id)
	}
	c.shuffle.dropNode(node)
	c.fs.DropNode(node)
	c.bumpStorageEpoch()
	c.postContextEvent(&NodeLost{Node: node, Executors: ids})
	return nil
}

// StorageEpoch returns the current storage-loss epoch: a counter bumped on
// every executor or node failure. Callers caching results derived from
// cluster storage (the serving layer's lineage-fingerprint cache) record the
// epoch at computation time and discard entries from older epochs.
func (c *Context) StorageEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storageEpoch
}

func (c *Context) bumpStorageEpoch() {
	c.mu.Lock()
	c.storageEpoch++
	c.mu.Unlock()
}

// SchedulerMode reports the configured multi-job arbitration mode.
func (c *Context) SchedulerMode() SchedulerMode { return c.sched.mode }

// FailExecutorAfter arranges for the executor to fail once the given number
// of further tasks have completed, injecting a failure in the middle of a
// running job: the plan takes hold at the first wave boundary after the
// threshold is reached (a running wave is never re-placed). Plans queue:
// repeated calls script cascading failures. Exported as a fault hook:
// core_test.go fails an executor mid-analysis from outside the package.
func (c *Context) FailExecutorAfter(id int, tasks int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failPlans = append(c.failPlans, &failurePlan{executor: id, node: -1, afterTasks: c.tasksDone + tasks})
}

// failNodeAfter arranges for the whole node to fail (failNode) once the
// given number of further tasks have completed — Config.Faults.NodeLoss is
// its caller. Plans queue, and take hold at wave boundaries, like
// FailExecutorAfter's.
func (c *Context) failNodeAfter(node int, tasks int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failPlans = append(c.failPlans, &failurePlan{executor: -1, node: node, afterTasks: c.tasksDone + tasks})
}

// excludedExecutors returns the ids of executors currently excluded from
// scheduling after repeated task failures, in id order.
func (c *Context) excludedExecutors() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for id, ex := range c.excluded {
		if ex {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// CachedBytes reports the total bytes currently cached across live executors.
func (c *Context) CachedBytes() int64 { return c.blocks.storageBytes() }

func (c *Context) newNodeID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextNodeID++
	return c.nextNodeID
}

func (c *Context) newShuffleID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextShuffleID++
	return c.nextShuffleID
}

func (c *Context) newJobID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJobID++
	return c.nextJobID
}

// Broadcast ships a read-only value to every executor once, as with Spark
// broadcast variables (the paper broadcasts the phenotype pairs in
// Algorithm 1 step 6). byteSize is the caller's estimate of the serialised
// size, charged to the next job over the network once per executor wave.
type Broadcast[T any] struct {
	v T
}

// Value returns the broadcast value.
func (b *Broadcast[T]) Value() T { return b.v }

// NewBroadcast registers v for distribution to all executors.
func NewBroadcast[T any](c *Context, v T, byteSize int64) *Broadcast[T] {
	if byteSize < 0 {
		panic(fmt.Sprintf("rdd: negative broadcast size %d", byteSize))
	}
	c.mu.Lock()
	c.pendingBcast += byteSize
	c.mu.Unlock()
	return &Broadcast[T]{v: v}
}

// chargeBroadcast converts pending broadcast bytes into virtual seconds at
// the start of a job: a BitTorrent-style distribution moves the payload over
// the network in ~log2(executors) rounds.
func (c *Context) chargeBroadcast() float64 {
	c.mu.Lock()
	bytes := c.pendingBcast
	c.pendingBcast = 0
	c.mu.Unlock()
	if bytes == 0 {
		return 0
	}
	execs := len(c.cluster.LiveExecutors())
	rounds := 1.0
	for n := 1; n < execs; n *= 2 {
		rounds++
	}
	return float64(bytes) / (netMBps * 1e6) * rounds
}
