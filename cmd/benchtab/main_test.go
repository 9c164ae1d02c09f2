// benchtab's CLI contracts, driven through the real binary: nonsense scales
// and the deleted -reps flag are refused, and an artifact's tables are a
// function of the flags — two runs print the same bytes.

package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsRefusedAndTablesReproducible(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchtab")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for args, want := range map[string]string{
		"-scale 0":      "-scale must be at least 1",
		"-scale -5":     "-scale must be at least 1",
		"-max-iters -1": "-max-iters non-negative",
		"-reps 2":       "flag provided but not defined",
	} {
		out, err := exec.Command(bin, strings.Fields("-exp tab1 "+args)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), want) {
			t.Errorf("benchtab %s: err = %v, want exit status 2 with %q:\n%s", args, err, want, out)
		}
	}

	// Everything above the wall-time footer, which is the one line that may
	// differ.
	tables := func() string {
		out, err := exec.Command(bin, strings.Fields("-exp fig2 -scale 2000 -max-iters 100")...).CombinedOutput()
		if err != nil {
			t.Fatalf("benchtab -exp fig2: %v\n%s", err, out)
		}
		body, _, found := strings.Cut(string(out), "\nbenchtab: done in ")
		if !found || !strings.Contains(body, "Figure 2") {
			t.Fatalf("benchtab -exp fig2 printed no tables above a wall-time footer:\n%s", out)
		}
		return body
	}
	if first, second := tables(), tables(); first != second {
		t.Errorf("two identical invocations printed different tables:\n%s\nthen:\n%s", first, second)
	}
}
