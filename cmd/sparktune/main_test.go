// sparktune's CLI contracts, driven through the real binary: nonsense scales,
// node counts below 1 and negative iteration counts are refused at flag
// parsing, and the ranking is a function of the flags — two runs print the
// same bytes.

package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsRefusedAndRankingReproducible(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sparktune")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, args := range []string{"-scale 0", "-scale -3", "-iterations -5", "-nodes 0", "-nodes -2"} {
		out, err := exec.Command(bin, strings.Fields(args)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "-scale and -nodes must be at least 1 and -iterations non-negative") {
			t.Errorf("sparktune %s: err = %v, want exit status 2 naming the three flags:\n%s", args, err, out)
		}
	}

	ranking := func() string {
		out, err := exec.Command(bin, strings.Fields("-patients 40 -snps 200 -sets 4 -nodes 2 -iterations 2")...).CombinedOutput()
		if err != nil {
			t.Fatalf("sparktune: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "<== best") || strings.Contains(string(out), "infeasible") {
			t.Fatalf("sparktune printed no feasible ranking:\n%s", out)
		}
		return string(out)
	}
	if first, second := ranking(), ranking(); first != second {
		t.Errorf("two identical invocations printed different rankings:\n%s\nthen:\n%s", first, second)
	}
}
