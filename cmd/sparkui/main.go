// Command sparkui renders a SparkScore event log as a text Spark-UI: job,
// stage, and recovery-event tables reconstructed purely from the JSONL log,
// the way Spark's History Server rebuilds its UI from spark.eventLog files.
// The log is a run's one record, so every post-mortem view is drawn here,
// the Chrome-trace timeline included.
//
//	sparkscore -generate -iterations 200 -events run.jsonl
//	sparkui -log run.jsonl                    # jobs, stages, recovery events
//	sparkui -log run.jsonl -tasks             # plus the task-attempt table
//	sparkui -log run.jsonl -tasks -task-limit 0   # ... uncapped
//	sparkui -log run.jsonl -trace run.trace.json  # plus a timeline for chrome://tracing
//
// Large runs produce hundreds of thousands of task attempts; -task-limit caps
// the task table (default 500 rows) and a footer reports how many rows were
// elided. 0 means unlimited.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"unicode/utf8"

	"sparkscore/internal/metrics"
	"sparkscore/internal/rdd"
)

func main() {
	logPath := flag.String("log", "", "JSONL event log (sparkscore -events, benchtab -events, or rdd.EventLogWriter)")
	tasks := flag.Bool("tasks", false, "also print the per-task-attempt table")
	taskLimit := flag.Int("task-limit", 500, "cap the task table at this many rows, noting how many were elided (0 = unlimited)")
	traceOut := flag.String("trace", "", "also write the run's Chrome-trace timeline to this file (open in chrome://tracing or ui.perfetto.dev)")
	flag.Parse()
	if *logPath == "" && flag.NArg() == 1 {
		*logPath = flag.Arg(0)
	}
	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "usage: sparkui -log <events.jsonl> [-tasks] [-trace <out.json>]")
		os.Exit(2)
	}
	if *taskLimit < 0 {
		fmt.Fprintln(os.Stderr, "sparkui: -task-limit must be >= 0")
		os.Exit(2)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fatal(err)
	}
	events, err := rdd.ReadEventLog(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, events); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sparkui: wrote timeline %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
	build(events).render(os.Stdout, *tasks, *taskLimit)
}

func writeTraceFile(path string, events []rdd.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparkui:", err)
	os.Exit(1)
}

// stage is one stage attempt (a (job, stage-id, round) task set).
type stage struct {
	id             uint64
	round          int
	rdd            string
	tasks          int
	failedAttempts int
	seconds        float64
	spills         int   // sorted runs the stage's tasks spilled
	spilledBytes   int64 // encoded bytes of those runs
	recovery       bool
	failed         bool
	done           bool
	attempts       []*rdd.TaskEnd
}

// job is one action's accounting, rebuilt from its events.
type job struct {
	id        uint64
	action    string
	pool      string
	rdd       string
	tasks     int
	retries   int
	resubmits int
	evictions int
	seconds   float64
	ended     bool
	failed    bool
	cancelled bool
	errMsg    string
	stages    []*stage
}

// recoveryEvent is one row of the recovery table: anything the fault-recovery
// machinery did, in log order.
type recoveryEvent struct {
	time float64
	desc string
}

type model struct {
	events   int
	jobs     []*job
	recovery []recoveryEvent
}

// build folds the event stream into jobs, stages, and recovery rows.
func build(events []rdd.Event) *model {
	m := &model{events: len(events)}
	byID := map[uint64]*job{}
	jobOf := func(id uint64) *job {
		if j, ok := byID[id]; ok {
			return j
		}
		j := &job{id: id}
		byID[id] = j
		m.jobs = append(m.jobs, j)
		return j
	}
	// openStage finds the stage attempt TaskEnd/StageCompleted events refer
	// to: the latest unfinished (stage, round) of the job.
	openStage := func(j *job, id uint64, round int) *stage {
		for i := len(j.stages) - 1; i >= 0; i-- {
			if s := j.stages[i]; s.id == id && s.round == round && !s.done {
				return s
			}
		}
		return nil
	}
	for _, ev := range events {
		switch e := ev.(type) {
		case *rdd.JobStart:
			j := jobOf(e.Job)
			j.action, j.pool, j.rdd = e.Action, e.Pool, e.RDD
		case *rdd.JobEnd:
			j := jobOf(e.Job)
			j.ended, j.failed, j.errMsg = true, e.Failed, e.Error
			j.cancelled = e.Cancelled
			j.seconds = e.VirtualSeconds
		case *rdd.JobCancelled:
			m.recoveryf(e.Time, "job %d: cancelled %s(%s): %s", e.Job, e.Action, e.RDD, e.Reason)
		case *rdd.StageSubmitted:
			j := jobOf(e.Job)
			j.tasks += e.NumTasks
			j.stages = append(j.stages, &stage{
				id: e.Stage, round: e.Round, rdd: e.RDD,
				tasks: e.NumTasks, recovery: e.Recovery,
			})
		case *rdd.StageCompleted:
			if s := openStage(jobOf(e.Job), e.Stage, e.Round); s != nil {
				s.done, s.failed = true, e.Failed
				s.failedAttempts, s.seconds = e.FailedAttempts, e.Seconds
			}
		case *rdd.StageResubmitted:
			jobOf(e.Job).resubmits++
			m.recoveryf(e.Time, "job %d: map stage of shuffle %d resubmitted (attempt %d): %s",
				e.Job, e.Shuffle, e.Attempt, e.Reason)
		case *rdd.TaskStart:
			if e.Attempt > 1 {
				jobOf(e.Job).retries++
			}
		case *rdd.TaskEnd:
			if s := openStage(jobOf(e.Job), e.Stage, e.Round); s != nil {
				s.attempts = append(s.attempts, e)
				s.spills += e.Metrics.SpillCount
				s.spilledBytes += e.Metrics.SpilledBytes
			}
			if !e.OK {
				m.recoveryf(e.Time, "job %d: stage %s task %d attempt %d failed on executor %d: %s",
					e.Job, stageLabel(e.Stage), e.Part, e.Attempt, e.Executor, e.Failure)
			}
		case *rdd.BlockEvicted:
			// Grouped by the event's own job id: with concurrent jobs the
			// latest JobStart is not the evicting job. Job ids start at 1;
			// 0 means a log from before evictions carried one.
			if e.Job != 0 {
				jobOf(e.Job).evictions++
			}
		case *rdd.FetchFailure:
			src := "found missing"
			if e.Injected {
				src = "injected loss of"
			}
			m.recoveryf(e.Time, "job %d: stage %s task %d %s map output %d of shuffle %d",
				e.Job, stageLabel(e.Stage), e.Part, src, e.MapPart, e.Shuffle)
		case *rdd.ExecutorExcluded:
			m.recoveryf(e.Time, "executor %d excluded after %d task failures", e.Executor, e.Failures)
		case *rdd.NodeLost:
			m.recoveryf(e.Time, "node %d lost (executors %v): cached blocks, shuffle outputs, and DFS replicas gone",
				e.Node, e.Executors)
		}
	}
	return m
}

func (m *model) recoveryf(t float64, format string, args ...any) {
	m.recovery = append(m.recovery, recoveryEvent{time: t, desc: fmt.Sprintf(format, args...)})
}

func stageLabel(id uint64) string {
	if id == 0 {
		return "result"
	}
	return fmt.Sprintf("map(shuffle %d)", id)
}

func (m *model) render(w io.Writer, withTasks bool, taskLimit int) {
	fmt.Fprintf(w, "event log: %d events, %d jobs, %d recovery events\n\n", m.events, len(m.jobs), len(m.recovery))

	jt := metrics.NewTable("jobs", "job", "action", "pool", "stages", "tasks", "retries", "stage-reattempts", "evictions", "sim-s", "status")
	for _, j := range m.jobs {
		jt.AddRowf(int(j.id), j.action, j.pool, len(j.stages), j.tasks, j.retries, j.resubmits, j.evictions,
			metrics.FormatSeconds(j.seconds), jobStatus(j))
	}
	jt.Fprint(w)
	fmt.Fprintln(w)

	st := metrics.NewTable("stages", "job", "stage", "round", "tasks", "failed-attempts", "spills", "spilled-B", "sim-s", "recovery", "rdd")
	for _, j := range m.jobs {
		for _, s := range j.stages {
			st.AddRowf(int(j.id), stageLabel(s.id), s.round, s.tasks, s.failedAttempts,
				s.spills, s.spilledBytes,
				metrics.FormatSeconds(s.seconds), flag3(s.recovery, s.failed, s.done), truncate(s.rdd, 48))
		}
	}
	st.Fprint(w)
	fmt.Fprintln(w)

	rt := metrics.NewTable("recovery events", "sim-t", "event")
	for _, r := range m.recovery {
		rt.AddRowf(metrics.FormatSeconds(r.time), r.desc)
	}
	if len(m.recovery) == 0 {
		rt.AddRow("-", "none: the run completed without failures")
	}
	rt.Fprint(w)

	if withTasks {
		fmt.Fprintln(w)
		tt := metrics.NewTable("task attempts", "job", "stage", "round", "part", "attempt", "executor", "start-s", "dur-s", "spills", "spilled-B", "status")
		shown, total := 0, 0
		for _, j := range m.jobs {
			for _, s := range j.stages {
				for _, t := range s.attempts {
					total++
					if taskLimit > 0 && shown >= taskLimit {
						continue
					}
					shown++
					status := "ok"
					switch {
					case !t.OK:
						status = "FAILED"
					case t.Recovery:
						status = "ok (recovery)"
					}
					tt.AddRowf(int(j.id), stageLabel(s.id), s.round, t.Part, t.Attempt, t.Executor,
						metrics.FormatSeconds(t.StartSec), metrics.FormatSeconds(t.DurationSec),
						t.Metrics.SpillCount, t.Metrics.SpilledBytes, status)
				}
			}
		}
		tt.Fprint(w)
		if elided := total - shown; elided > 0 {
			fmt.Fprintf(w, "(%d of %d task attempts shown; %d elided — raise -task-limit or pass -task-limit 0)\n",
				shown, total, elided)
		}
	}
}

func jobStatus(j *job) string {
	switch {
	case !j.ended:
		return "incomplete (log truncated?)"
	case j.cancelled:
		return "CANCELLED"
	case j.failed:
		return "FAILED: " + truncate(j.errMsg, 60)
	default:
		return "ok"
	}
}

// flag3 renders the stage status cell: recovery and failure are the
// interesting states, a clean completed stage is just blank.
func flag3(recovery, failed, done bool) string {
	switch {
	case failed:
		return "FAILED"
	case recovery:
		return "yes"
	case !done:
		return "incomplete"
	default:
		return ""
	}
}

// truncate caps s at n bytes, cutting at a rune boundary so a multi-byte
// rune is never split.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n - 3
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}
