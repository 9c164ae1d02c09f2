// Typed scheduler events and the listener bus — the engine's counterpart of
// Spark's SparkListener/ListenerBus pipeline, which feeds the Spark UI and
// event logs the paper's runtimes were read from.
//
// Events are emitted from the scheduler, the shuffle layer, the block
// manager, and the fault injector, and delivered synchronously to every
// registered listener in registration order. Delivery order is
// deterministic: task-sourced events (cache puts, evictions, fetch failures)
// are buffered on the task context while tasks run concurrently, and flushed
// during the scheduler's deterministic post-wave accounting pass — the same
// partition-ordered walk that charges virtual time. Every event carries a
// virtual timestamp on the simulated cluster clock, not host wall time.
//
// JobMetrics itself is reconstructed by a built-in listener (listeners.go);
// the scheduler no longer mutates it directly.

package rdd

import "sync"

// Event is one typed scheduler event. The set of events is closed: all
// implementations live in this package (setTime is unexported), mirroring
// Spark's sealed SparkListenerEvent hierarchy.
type Event interface {
	// Name returns the stable event name used in the event log's "type" field.
	Name() string
	// When returns the event's virtual timestamp in simulated seconds.
	When() float64
	setTime(float64)
}

// Listener receives every bus event, synchronously and in deterministic
// order, as with Spark's SparkListenerInterface. OnEvent is never called
// concurrently; a listener that shares state with other goroutines (e.g. a
// writer flushed elsewhere) must do its own locking.
type Listener interface {
	OnEvent(Event)
}

// ListenerFunc adapts a plain function to the Listener interface.
type ListenerFunc func(Event)

// OnEvent implements Listener.
func (f ListenerFunc) OnEvent(ev Event) { f(ev) }

// EventTime is embedded in every event and carries the virtual timestamp.
type EventTime struct {
	Time float64 `json:"time"`
}

func (e *EventTime) When() float64     { return e.Time }
func (e *EventTime) setTime(t float64) { e.Time = t }

// JobStart marks an action beginning execution (SparkListenerJobStart).
type JobStart struct {
	EventTime
	Job    uint64 `json:"job"`
	Action string `json:"action"`
	RDD    string `json:"rdd"`
	// Pool is the scheduling pool the job was submitted to (Submission.Pool);
	// empty in logs written before pools existed.
	Pool string `json:"pool,omitempty"`
	// BroadcastSeconds is the virtual time charged up front for pending
	// broadcast distribution.
	BroadcastSeconds float64 `json:"broadcastSeconds,omitempty"`
}

func (*JobStart) Name() string { return "JobStart" }

// JobEnd marks an action finishing (SparkListenerJobEnd); Failed jobs carry
// the abort error.
type JobEnd struct {
	EventTime
	Job    uint64 `json:"job"`
	Action string `json:"action"`
	RDD    string `json:"rdd"`
	// VirtualSeconds is the job's simulated duration (broadcast + stages).
	VirtualSeconds float64 `json:"virtualSeconds"`
	Failed         bool    `json:"failed,omitempty"`
	Error          string  `json:"error,omitempty"`
	// Cancelled marks a job ended by its Submission's context, not by failure:
	// the job produced no result but the context remains fully usable.
	Cancelled bool `json:"cancelled,omitempty"`
}

func (*JobEnd) Name() string { return "JobEnd" }

// StageSubmitted marks a stage's task set launching
// (SparkListenerStageSubmitted). Stage is the shuffle id for map stages and 0
// for the result stage; Recovery marks stages re-run by fault recovery.
type StageSubmitted struct {
	EventTime
	Job      uint64 `json:"job"`
	Stage    uint64 `json:"stage"`
	Round    int    `json:"round"`
	RDD      string `json:"rdd"`
	NumTasks int    `json:"numTasks"`
	Recovery bool   `json:"recovery,omitempty"`
}

func (*StageSubmitted) Name() string { return "StageSubmitted" }

// StageCompleted marks a stage barrier (SparkListenerStageCompleted).
// Seconds is the stage's virtual elapsed time: the slowest executor's
// makespan plus the per-stage overhead.
type StageCompleted struct {
	EventTime
	Job            uint64  `json:"job"`
	Stage          uint64  `json:"stage"`
	Round          int     `json:"round"`
	RDD            string  `json:"rdd"`
	NumTasks       int     `json:"numTasks"`
	FailedAttempts int     `json:"failedAttempts,omitempty"`
	Seconds        float64 `json:"seconds"`
	Failed         bool    `json:"failed,omitempty"`
	Error          string  `json:"error,omitempty"`
}

func (*StageCompleted) Name() string { return "StageCompleted" }

// StageResubmitted marks the DAG scheduler resubmitting a map stage after a
// fetch failure (Spark's DAGScheduler stage reattempt, visible in the UI as
// a new stage attempt).
type StageResubmitted struct {
	EventTime
	Job     uint64 `json:"job"`
	Shuffle int    `json:"shuffle"`
	Attempt int    `json:"attempt"` // resubmission count for this shuffle, 1-based
	Reason  string `json:"reason"`
}

func (*StageResubmitted) Name() string { return "StageResubmitted" }

// TaskStart marks a task attempt's virtual launch (SparkListenerTaskStart).
type TaskStart struct {
	EventTime
	Job      uint64 `json:"job"`
	Stage    uint64 `json:"stage"`
	Round    int    `json:"round"`
	Part     int    `json:"part"`
	Attempt  int    `json:"attempt"`
	Executor int    `json:"executor"`
}

func (*TaskStart) Name() string { return "TaskStart" }

// TaskEnd marks a task attempt finishing (SparkListenerTaskEnd), carrying the
// attempt's metrics snapshot as Spark tasks carry TaskMetrics. Recovery marks
// attempts whose virtual time is charged to JobMetrics.RecoverySeconds.
type TaskEnd struct {
	EventTime
	Job      uint64 `json:"job"`
	Stage    uint64 `json:"stage"`
	Round    int    `json:"round"`
	Part     int    `json:"part"`
	Attempt  int    `json:"attempt"`
	Executor int    `json:"executor"`
	OK       bool   `json:"ok"`
	Failure  string `json:"failure,omitempty"`
	Recovery bool   `json:"recovery,omitempty"`
	// StartSec/DurationSec locate the attempt's span on the virtual clock
	// (the event's Time is the end of the span); both are functions of the
	// Config. ComputeSec is the host time the attempt took — the one
	// host-derived value on the bus, for in-process listeners (bench's
	// tracer): the clock never reads it and the log never carries it.
	StartSec    float64     `json:"startSec"`
	DurationSec float64     `json:"durationSec"`
	ComputeSec  float64     `json:"-"`
	Metrics     TaskMetrics `json:"metrics"`
}

func (*TaskEnd) Name() string { return "TaskEnd" }

// TaskMetrics is the per-attempt cost snapshot carried by TaskEnd — the
// analogue of Spark's TaskMetrics. All fields are byte counters or counts,
// reproducible for a fixed Config. Ops is the kernel work the task's closures
// declared through Task.Charge.
type TaskMetrics struct {
	DFSLocalBytes       int64 `json:"dfsLocalBytes,omitempty"`
	DFSRemoteBytes      int64 `json:"dfsRemoteBytes,omitempty"`
	ShuffleLocalBytes   int64 `json:"shuffleLocalBytes,omitempty"`
	ShuffleRemoteBytes  int64 `json:"shuffleRemoteBytes,omitempty"`
	CacheLocalBytes     int64 `json:"cacheLocalBytes,omitempty"`
	CacheDiskLocalBytes int64 `json:"cacheDiskLocalBytes,omitempty"`
	CacheRemoteBytes    int64 `json:"cacheRemoteBytes,omitempty"`
	ShipBytes           int64 `json:"shipBytes,omitempty"`
	Ops                 int64 `json:"ops,omitempty"`
	MaterializedBytes   int64 `json:"materializedBytes,omitempty"`
	FusedChain          int   `json:"fusedChain,omitempty"`
	// Spill and execution-memory accounting (sort shuffle / memory manager).
	// SpilledBytes is the encoded bytes of the runs the task wrote under
	// memory pressure, SpillCount how many; ShuffleBufferBytes is the largest
	// shuffle buffer the task held; ExecutionPeakBytes its execution-memory
	// high-water mark. All zero (and absent from logs) when memory is ample.
	SpilledBytes       int64 `json:"spilledBytes,omitempty"`
	SpillCount         int   `json:"spillCount,omitempty"`
	ShuffleBufferBytes int64 `json:"shuffleBufferBytes,omitempty"`
	ExecutionPeakBytes int64 `json:"executionPeakBytes,omitempty"`
}

// BlockCached marks a partition entering the block manager (the storing half
// of SparkListenerBlockUpdated). Job is the job whose task stored the block —
// with concurrent jobs, "the currently running job" is no longer well defined,
// so block events carry their owner explicitly.
type BlockCached struct {
	EventTime
	Job      uint64 `json:"job,omitempty"`
	RDD      int    `json:"rdd"`
	Part     int    `json:"part"`
	Executor int    `json:"executor"`
	Bytes    int64  `json:"bytes"`
	OnDisk   bool   `json:"onDisk,omitempty"`
}

func (*BlockCached) Name() string { return "BlockCached" }

// BlockEvicted marks an LRU eviction making room for another RDD's block
// (the dropping half of SparkListenerBlockUpdated). Job is the job whose task
// caused the eviction, not the job that cached the victim.
type BlockEvicted struct {
	EventTime
	Job      uint64 `json:"job,omitempty"`
	RDD      int    `json:"rdd"`
	Part     int    `json:"part"`
	Executor int    `json:"executor"`
	Bytes    int64  `json:"bytes"`
}

func (*BlockEvicted) Name() string { return "BlockEvicted" }

// ShuffleSpill marks a map task's shuffle buffer spilling a run
// to the DFS after the memory manager denied further buffering — the engine's
// counterpart of Spark's "spilling sort data ... to disk" executor log line.
// Bytes is the encoded size of the run file; Elems the pairs it holds.
type ShuffleSpill struct {
	EventTime
	Job      uint64 `json:"job"`
	Stage    uint64 `json:"stage"`
	Round    int    `json:"round"`
	Part     int    `json:"part"`
	Attempt  int    `json:"attempt"`
	Executor int    `json:"executor"`
	Shuffle  int    `json:"shuffle"`
	Run      int    `json:"run"` // run index within the map output, 0-based
	Bytes    int64  `json:"bytes"`
	Elems    int    `json:"elems"`
}

func (*ShuffleSpill) Name() string { return "ShuffleSpill" }

// FetchFailure marks a reduce task finding a map output missing (Spark's
// FetchFailed TaskEndReason). The scheduler reacts by resubmitting the
// parent map stage.
type FetchFailure struct {
	EventTime
	Job      uint64 `json:"job"`
	Stage    uint64 `json:"stage"`
	Round    int    `json:"round"`
	Part     int    `json:"part"`
	Attempt  int    `json:"attempt"`
	Shuffle  int    `json:"shuffle"`
	MapPart  int    `json:"mapPart"`
	Injected bool   `json:"injected,omitempty"`
}

func (*FetchFailure) Name() string { return "FetchFailure" }

// ExecutorExcluded marks an executor taken out of scheduling after repeated
// task failures (SparkListenerExecutorExcluded, née blacklisting).
type ExecutorExcluded struct {
	EventTime
	Executor int `json:"executor"`
	Failures int `json:"failures"`
}

func (*ExecutorExcluded) Name() string { return "ExecutorExcluded" }

// NodeLost marks a whole-machine loss: its executors, cached blocks, shuffle
// outputs, and DFS replicas are gone (Spark's SparkListenerExecutorRemoved
// for every container, plus the external-shuffle and HDFS consequences a
// real decommission implies).
type NodeLost struct {
	EventTime
	Node      int   `json:"node"`
	Executors []int `json:"executors"`
}

func (*NodeLost) Name() string { return "NodeLost" }

// JobCancelled marks a job being torn down by its Submission's context
// (Spark's SparkListenerJobEnd with JobFailed(SparkException: "cancelled"),
// surfaced as its own event here so cancellations are not conflated with
// failures). It is followed by the terminal JobEnd{Cancelled: true}.
type JobCancelled struct {
	EventTime
	Job    uint64 `json:"job"`
	Action string `json:"action"`
	RDD    string `json:"rdd"`
	Reason string `json:"reason"`
}

func (*JobCancelled) Name() string { return "JobCancelled" }

// eventFactories maps event-log type names back to empty event values;
// ReadEventLog uses it to decode lines.
var eventFactories = map[string]func() Event{
	"JobStart":         func() Event { return &JobStart{} },
	"JobEnd":           func() Event { return &JobEnd{} },
	"StageSubmitted":   func() Event { return &StageSubmitted{} },
	"StageCompleted":   func() Event { return &StageCompleted{} },
	"StageResubmitted": func() Event { return &StageResubmitted{} },
	"TaskStart":        func() Event { return &TaskStart{} },
	"TaskEnd":          func() Event { return &TaskEnd{} },
	"BlockCached":      func() Event { return &BlockCached{} },
	"BlockEvicted":     func() Event { return &BlockEvicted{} },
	"ShuffleSpill":     func() Event { return &ShuffleSpill{} },
	"FetchFailure":     func() Event { return &FetchFailure{} },
	"ExecutorExcluded": func() Event { return &ExecutorExcluded{} },
	"NodeLost":         func() Event { return &NodeLost{} },
	"JobCancelled":     func() Event { return &JobCancelled{} },
}

// listenerBus delivers events synchronously to every registered listener, in
// registration order, under one mutex — so listeners observe a single total
// order of events even though tasks execute concurrently.
type listenerBus struct {
	mu        sync.Mutex
	listeners []Listener
}

func (b *listenerBus) add(l Listener) {
	b.mu.Lock()
	b.listeners = append(b.listeners, l)
	b.mu.Unlock()
}

func (b *listenerBus) post(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.listeners {
		l.OnEvent(ev)
	}
}

// emit stamps the event with a virtual timestamp and posts it to the bus.
func (c *Context) emit(t float64, ev Event) {
	ev.setTime(t)
	c.bus.post(ev)
}

// postContextEvent publishes an event originating outside any one task
// (node losses). While a job is running the event is buffered and flushed at
// the next stage barrier, so its position in the log is deterministic even
// though failure plans fire from worker goroutines; between jobs it is
// posted immediately at the current clock.
func (c *Context) postContextEvent(ev Event) {
	c.mu.Lock()
	if c.activeJobs > 0 {
		c.pendingEvents = append(c.pendingEvents, ev)
		c.mu.Unlock()
		return
	}
	t := c.clock
	c.mu.Unlock()
	c.emit(t, ev)
}

// drainContextEvents flushes events buffered by postContextEvent, stamping
// them with the given virtual time.
func (c *Context) drainContextEvents(t float64) {
	c.mu.Lock()
	pending := c.pendingEvents
	c.pendingEvents = nil
	c.mu.Unlock()
	for _, ev := range pending {
		c.emit(t, ev)
	}
}
