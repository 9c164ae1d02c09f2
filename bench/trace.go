// The traced run's recorder. An rdd.Listener registered from outside stamps
// host time on job and stage boundaries and sums the measured compute of
// every task; the workloads wrap those in pass or request spans. Spans stay in
// memory and are written as one Chrome-trace file when the run ends.
//
// Task spans are synthetic: the engine reports each task's measured compute
// (TaskEnd.ComputeSec) only after its wave, so tasks are laid onto
// worker-count lanes from the stage's start in partition order. Their
// durations are measured; their offsets within the stage are not.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparkscore/internal/rdd"
)

// span is one traced interval. Spans of one pass or one served request share
// a TraceID (the request's Response.request id on serve_mixed).
type span struct {
	TraceID uint64 `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	lane int // display row: client for driver-side spans, worker lane for tasks
}

type stageRec struct {
	name       string
	result     bool // the job's result stage, as opposed to a shuffle map stage
	start, end int64
	taskSecs   []float64 // measured compute of each task attempt
	bytes      int64     // DFS + shuffle + cache bytes the stage's tasks read
}

type jobRec struct {
	id         uint64
	pool       string
	action     string
	start, end int64
	stages     []*stageRec
}

// tracer implements rdd.Listener. The bus delivers events one at a time, but
// workloads read the records from their own goroutines, hence the mutex.
type tracer struct {
	t0      time.Time
	workers int

	// paused makes OnEvent drop events: serve_mixed's one long-lived context
	// cannot unregister a listener, so its untraced segments pause it instead.
	paused atomic.Bool

	mu      sync.Mutex
	running map[uint64]*jobRec
	done    []*jobRec

	spans  []span
	nextID int
}

func newTracer(workers int) *tracer {
	return &tracer{t0: time.Now(), workers: max(workers, 1), running: map[uint64]*jobRec{}}
}

// now is nanoseconds since the tracer started: the trace's time base.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// OnEvent implements rdd.Listener.
func (t *tracer) OnEvent(ev rdd.Event) {
	if t.paused.Load() {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e := ev.(type) {
	case *rdd.JobStart:
		t.running[e.Job] = &jobRec{id: e.Job, pool: e.Pool, action: e.Action, start: now}
	case *rdd.StageSubmitted:
		if j := t.running[e.Job]; j != nil {
			j.stages = append(j.stages, &stageRec{name: e.RDD, result: e.Stage == 0, start: now})
		}
	case *rdd.TaskEnd:
		// Task events of a stage are flushed between its StageSubmitted and
		// StageCompleted, so they belong to the job's latest stage.
		if j := t.running[e.Job]; j != nil && len(j.stages) > 0 {
			s := j.stages[len(j.stages)-1]
			m := e.Metrics
			s.taskSecs = append(s.taskSecs, e.ComputeSec)
			s.bytes += m.DFSLocalBytes + m.DFSRemoteBytes + m.ShuffleLocalBytes + m.ShuffleRemoteBytes +
				m.CacheLocalBytes + m.CacheDiskLocalBytes + m.CacheRemoteBytes
		}
	case *rdd.StageCompleted:
		if j := t.running[e.Job]; j != nil && len(j.stages) > 0 {
			j.stages[len(j.stages)-1].end = now
		}
	case *rdd.JobEnd:
		if j := t.running[e.Job]; j != nil {
			j.end = now
			delete(t.running, e.Job)
			t.done = append(t.done, j)
		}
	}
}

// drain returns the jobs that finished since the last drain.
func (t *tracer) drain() []*jobRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobs := t.done
	t.done = nil
	return jobs
}

// jobTimes is the host time of a set of jobs, summed.
type jobTimes struct {
	taskCompute, mapCompute, resultCompute float64 // seconds of measured task compute
	jobWall                                float64 // seconds between JobStart and JobEnd
}

func sumJobs(jobs []*jobRec) jobTimes {
	var jt jobTimes
	for _, j := range jobs {
		jt.jobWall += float64(j.end-j.start) / 1e9
		for _, s := range j.stages {
			for _, sec := range s.taskSecs {
				jt.taskCompute += sec
				if s.result {
					jt.resultCompute += sec
				} else {
					jt.mapCompute += sec
				}
			}
		}
	}
	return jt
}

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// addJobs records job → stage → task spans under parent. taskLayer names the
// pipeline module whose closures the tasks ran.
func (t *tracer) addJobs(traceID uint64, parent, lane int, taskLayer string, jobs []*jobRec) {
	for _, j := range jobs {
		jid := t.add(span{TraceID: traceID, Parent: parent, Layer: "rdd", lane: lane,
			Name: fmt.Sprintf("job %d %s", j.id, j.action), StartNs: j.start, EndNs: j.end})
		for _, s := range j.stages {
			sid := t.add(span{TraceID: traceID, Parent: jid, Layer: "rdd", lane: lane,
				Name: "stage " + shorten(s.name), StartNs: s.start, EndNs: s.end})
			free := make([]int64, t.workers)
			for i := range free {
				free[i] = s.start
			}
			for _, sec := range s.taskSecs {
				l := 0
				for i := range free {
					if free[i] < free[l] {
						l = i
					}
				}
				end := free[l] + int64(sec*1e9)
				t.add(span{TraceID: traceID, Parent: sid, Layer: taskLayer, lane: l,
					Name: "task", StartNs: free[l], EndNs: end})
				free[l] = end
			}
		}
	}
}

// shorten keeps the outermost operators of a lineage label.
func shorten(name string) string {
	const keep = 56
	if len(name) <= keep {
		return name
	}
	return name[:keep] + "…"
}

// layerBusy returns each layer's busy time in seconds: the sum over its spans
// of self time, a span's duration minus the part its children cover.
func (t *tracer) layerBusy() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	busy := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		busy[s.Layer] += float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return busy
}

// stageRow is one line of the per-stage breakdown.
type stageRow struct {
	name       string
	runs       int // jobs that ran the stage
	tasks      int
	computeSec float64
	wallSec    float64
	bytes      int64
}

// stageTable folds jobs into one row per stage lineage label, in order of
// first appearance.
func stageTable(jobs []*jobRec) []stageRow {
	index := map[string]int{}
	var rows []stageRow
	for _, j := range jobs {
		for _, s := range j.stages {
			i, ok := index[s.name]
			if !ok {
				i = len(rows)
				index[s.name] = i
				rows = append(rows, stageRow{name: s.name})
			}
			r := &rows[i]
			r.runs++
			r.tasks += len(s.taskSecs)
			r.wallSec += float64(s.end-s.start) / 1e9
			r.bytes += s.bytes
			for _, sec := range s.taskSecs {
				r.computeSec += sec
			}
		}
	}
	return rows
}

func printStageTable(w io.Writer, title string, jobs []*jobRec) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-58s %6s %7s %10s %10s %13s\n", "stage", "runs", "tasks", "compute-s", "wall-s", "bytes")
	for _, r := range stageTable(jobs) {
		fmt.Fprintf(w, "  %-58s %6d %7d %10.4f %10.4f %13d\n", shorten(r.name), r.runs, r.tasks, r.computeSec, r.wallSec, r.bytes)
	}
}

func (t *tracer) printLayerBusy(w io.Writer) {
	busy := t.layerBusy()
	layers := make([]string, 0, len(busy))
	for l := range busy {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "\nper-layer busy time from spans (self time: a span minus what its children cover)\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-8s %10.4f s\n", l, busy[l])
	}
}

// chromeEvent is one complete ("X") or metadata ("M") entry of the Chrome
// trace-event format, which Perfetto also reads. Timestamps are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"` // a span's own fields, or a metadata map
}

const (
	driverPid = 1 // pass, request, job and stage spans; one row per client
	taskPid   = 2 // synthetic task spans; one row per worker lane
)

// write renders every span to path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: driverPid, Args: map[string]any{"name": "driver (pass / request > job > stage)"}},
		{Name: "process_name", Ph: "M", Pid: taskPid, Args: map[string]any{"name": "tasks (measured compute, synthetic placement)"}},
	}
	for _, s := range t.spans {
		pid := driverPid
		if s.Name == "task" {
			pid = taskPid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: pid, Tid: s.lane, Args: s,
		})
	}
	t.mu.Unlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
