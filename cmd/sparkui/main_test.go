// The text UI driven through the real binaries: a chaos run's event log is
// rendered, and the logs and flags sparkui must refuse are refused with the
// usual exit codes. Binaries and logs live in t.TempDir().

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"sparkscore/internal/rdd"
)

// buildCmd compiles the package at pkg into dir as name and returns its path.
func buildCmd(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// exitCode runs bin and returns its combined output and exit status.
func exitCode(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	return "", 0
}

func TestRendersChaosLog(t *testing.T) {
	dir := t.TempDir()
	sparkscore, sparkui := buildCmd(t, dir, "sparkscore", "../sparkscore"), buildCmd(t, dir, "sparkui", ".")
	events := filepath.Join(dir, "chaos.jsonl")
	if out, code := exitCode(t, sparkscore, "-generate", "-patients", "60", "-snps", "300", "-sets", "6",
		"-iterations", "130", "-chaos", "-nodes", "3", "-events", events); code != 0 {
		t.Fatalf("sparkscore -chaos exited %d:\n%s", code, out)
	}

	trace := filepath.Join(dir, "chaos.trace.json")
	out, code := exitCode(t, sparkui, "-log", events, "-tasks", "-task-limit", "0", "-trace", trace)
	if code != 0 {
		t.Fatalf("sparkui exited %d:\n%s", code, out)
	}
	for _, table := range []string{"\njobs\n", "\nstages\n", "\nrecovery events\n", "\ntask attempts\n"} {
		if !strings.Contains(out, table) {
			t.Errorf("output lacks the %q table:\n%s", strings.TrimSpace(table), out)
		}
	}
	if strings.Contains(out, "none: the run completed without failures") || !strings.Contains(out, "injected task crash") {
		t.Errorf("the recovery table of a chaos run shows no injected crash:\n%s", out)
	}
	_, tasks, _ := strings.Cut(out, "\ntask attempts\n")
	header, _, _ := strings.Cut(tasks, "\n")
	if got := strings.Join(strings.Fields(header), " "); got != "job stage round part attempt executor start-s dur-s spills spilled-B status" {
		t.Errorf("task table header = %q", got)
	}

	// -trace writes the timeline writeChromeTrace draws from the log.
	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeChromeTrace(&want, readLog(t, raw)); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(trace); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("sparkui -trace wrote %d bytes (err %v), want the %d bytes of writeChromeTrace", len(got), err, want.Len())
	}

	// A bad -task-limit is refused before the log is opened.
	if out, code := exitCode(t, sparkui, "-log", filepath.Join(dir, "missing.jsonl"), "-task-limit", "-1"); code != 2 || !strings.Contains(out, "-task-limit") {
		t.Errorf("-task-limit -1 exited %d, want 2 naming the flag:\n%s", code, out)
	}

	// A log an earlier build wrote with adaptive planning on is refused on
	// the line that carries the deleted event.
	first, _, _ := strings.Cut(string(raw), "\n")
	old := filepath.Join(dir, "adaptive.jsonl")
	plan := `{"type":"AdaptivePlan","data":{"time":0.5,"job":1,"stage":1,"round":0,"rdd":"reduceByKey","partitions":5,"tasks":1,"coalescedGroups":1}}`
	if err := os.WriteFile(old, []byte(first+"\n"+plan+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := exitCode(t, sparkui, "-log", old); code != 1 || !strings.Contains(out, `line 2: unknown event type "AdaptivePlan"`) {
		t.Errorf("a log with a deleted event type exited %d, want 1 naming line 2:\n%s", code, out)
	}
}

// TestTruncateKeepsRunesWhole: a job error with a multi-byte rune across the
// cut renders as valid UTF-8, the rune dropped whole.
func TestTruncateKeepsRunesWhole(t *testing.T) {
	msg := strings.Repeat("x", 56) + "é" + strings.Repeat("y", 20) // é is bytes 56 and 57
	if got, want := truncate(msg, 60), strings.Repeat("x", 56)+"..."; got != want {
		t.Errorf("truncate = %q, want %q", got, want)
	}
	var buf bytes.Buffer
	build([]rdd.Event{
		&rdd.JobStart{Job: 1, Action: "collect", RDD: "map"},
		&rdd.JobEnd{Job: 1, Action: "collect", RDD: "map", Failed: true, Error: msg},
	}).render(&buf, false, 0)
	if !utf8.Valid(buf.Bytes()) || !strings.Contains(buf.String(), "FAILED: "+strings.Repeat("x", 56)+"...") {
		t.Errorf("the jobs table does not cut the error at a rune boundary:\n%s", buf.String())
	}
}
