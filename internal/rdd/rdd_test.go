package rdd

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sparkscore/internal/cluster"
	"sparkscore/internal/rng"
)

func newTestContext(t testing.TB, nodes int) *Context {
	t.Helper()
	c, err := New(Config{
		Cluster: cluster.Config{Nodes: nodes, Spec: cluster.M3TwoXLarge},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	c := newTestContext(t, 2)
	in := seq(100)
	got, err := Collect(Parallelize(c, in, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d elements", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d = %d (partition order not preserved)", i, v)
		}
	}
}

func TestParallelizeCopiesInput(t *testing.T) {
	c := newTestContext(t, 1)
	in := []int{1, 2, 3}
	r := Parallelize(c, in, 2)
	in[0] = 99
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("caller mutation leaked into the RDD")
	}
}

func TestParallelizeMorePartitionsThanElements(t *testing.T) {
	c := newTestContext(t, 2)
	got, err := Collect(Parallelize(c, []int{1, 2}, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestMap(t *testing.T) {
	c := newTestContext(t, 2)
	r := Map(Parallelize(c, seq(50), 5), "sq", func(x int) int { return x * x })
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestFilter(t *testing.T) {
	c := newTestContext(t, 2)
	r := Filter(Parallelize(c, seq(20), 4), "even", func(x int) bool { return x%2 == 0 })
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("kept %d elements, want 10", len(got))
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Fatalf("odd element %d passed the filter", v)
		}
	}
}

func TestFlatMap(t *testing.T) {
	c := newTestContext(t, 2)
	r := FlatMap(Parallelize(c, []int{1, 2, 3}, 2), "dup", func(x int) []int { return []int{x, x} })
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 2, 2, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCount(t *testing.T) {
	c := newTestContext(t, 2)
	n, err := Count(Parallelize(c, seq(123), 9))
	if err != nil {
		t.Fatal(err)
	}
	if n != 123 {
		t.Fatalf("Count = %d", n)
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	c := newTestContext(t, 1)
	r := Map(Parallelize(c, seq(4), 2), "boom", func(x int) int {
		if x == 3 {
			panic("kaboom")
		}
		return x
	})
	if _, err := Collect(r); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestTextFileLines(t *testing.T) {
	c := newTestContext(t, 3)
	content := "alpha\nbeta\ngamma\ndelta\n"
	if _, err := c.FS().Write("f.txt", []byte(content)); err != nil {
		t.Fatal(err)
	}
	r, err := c.TextFile("f.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectLines(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "gamma", "delta"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTextFileMultiBlock(t *testing.T) {
	c, err := New(Config{
		Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 32,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "line-%04d\n", i)
	}
	if _, err := c.FS().Write("big.txt", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	r, err := c.TextFile("big.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partitions() < 2 {
		t.Fatalf("expected multiple partitions, got %d", r.Partitions())
	}
	got, err := collectLines(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d lines", len(got))
	}
	for i, l := range got {
		if l != fmt.Sprintf("line-%04d", i) {
			t.Fatalf("line %d = %q", i, l)
		}
	}
}

func TestTextFileMissing(t *testing.T) {
	c := newTestContext(t, 1)
	if _, err := c.TextFile("nope", 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMapChainPipelines(t *testing.T) {
	// Many chained narrow transformations must still be a single stage.
	c := newTestContext(t, 2)
	r := Parallelize(c, seq(10), 2)
	m := Map(r, "a", func(x int) int { return x + 1 })
	m = Map(m, "b", func(x int) int { return x * 2 })
	m = Filter(m, "c", func(x int) bool { return x > 4 })
	if _, err := Collect(m); err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()
	last := jobs[len(jobs)-1]
	if last.Stages != 1 {
		t.Fatalf("narrow chain ran in %d stages, want 1", last.Stages)
	}
	if last.Tasks != 2 {
		t.Fatalf("narrow chain ran %d tasks, want 2", last.Tasks)
	}
}

func TestMapFilterComposition(t *testing.T) {
	c := newTestContext(t, 2)
	f := func(xs []int16) bool {
		in := make([]int, len(xs))
		for i, v := range xs {
			in[i] = int(v)
		}
		r := Filter(Map(Parallelize(c, in, 3), "inc", func(x int) int { return x + 1 }),
			"pos", func(x int) bool { return x > 0 })
		got, err := Collect(r)
		if err != nil {
			return false
		}
		var want []int
		for _, v := range in {
			if v+1 > 0 {
				want = append(want, v+1)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTextFileSubSplitsCoverAllLines(t *testing.T) {
	c := newTestContext(t, 2)
	var sb strings.Builder
	for i := 0; i < 57; i++ {
		fmt.Fprintf(&sb, "row-%03d with padding to vary lengths %s\n", i, strings.Repeat("x", i%7))
	}
	if _, err := c.FS().Write("s.txt", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	for _, minParts := range []int{0, 1, 2, 5, 8, 16, 57, 200} {
		r, err := c.TextFile("s.txt", minParts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectLines(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 57 {
			t.Fatalf("minPartitions=%d: %d lines, want 57", minParts, len(got))
		}
		for i, l := range got {
			if !strings.HasPrefix(l, fmt.Sprintf("row-%03d", i)) {
				t.Fatalf("minPartitions=%d: line %d = %q (order or content lost)", minParts, i, l)
			}
		}
		if minParts > 1 && r.Partitions() < 2 {
			t.Fatalf("minPartitions=%d produced %d partitions", minParts, r.Partitions())
		}
	}
}

func TestTextFileSubSplitsNoDoubleCounting(t *testing.T) {
	// Each line must appear exactly once even when split boundaries fall
	// mid-line; Count over sub-splits equals the line count.
	c := newTestContext(t, 1)
	var sb strings.Builder
	for i := 0; i < 101; i++ {
		fmt.Fprintf(&sb, "%d\n", i)
	}
	c.FS().Write("n.txt", []byte(sb.String()))
	r, err := c.TextFile("n.txt", 13)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 101 {
		t.Fatalf("Count = %d, want 101", n)
	}
}

func TestTextFileNoTrailingNewline(t *testing.T) {
	c := newTestContext(t, 1)
	c.FS().Write("t.txt", []byte("a\nb\nc")) // no final newline
	r, err := c.TextFile("t.txt", 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectLines(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestTextFileEmpty(t *testing.T) {
	c := newTestContext(t, 1)
	c.FS().Write("e.txt", nil)
	r, err := c.TextFile("e.txt", 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty file counted %d lines", n)
	}
}

func TestLineStartAtOrAfter(t *testing.T) {
	data := []byte("ab\ncd\nef")
	cases := []struct{ off, want int }{
		{0, 0}, {1, 3}, {2, 3}, {3, 3}, {4, 6}, {6, 6}, {7, 8}, {8, 8}, {99, 8},
	}
	for _, cse := range cases {
		if got := lineStartAtOrAfter(data, cse.off); got != cse.want {
			t.Errorf("lineStartAtOrAfter(%d) = %d, want %d", cse.off, got, cse.want)
		}
	}
}

func TestTextFileSubSplitProperty(t *testing.T) {
	c := newTestContext(t, 2)
	f := func(seed uint64) bool {
		rr := seed
		lines := int(rr%60) + 1
		minParts := int(rr/60%20) + 1
		var sb strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&sb, "line%d\n", i)
		}
		name := fmt.Sprintf("p%d.txt", seed)
		c.FS().Write(name, []byte(sb.String()))
		r, err := c.TextFile(name, minParts)
		if err != nil {
			return false
		}
		got, err := collectLines(r)
		if err != nil {
			return false
		}
		if len(got) != lines {
			return false
		}
		for i, l := range got {
			if l != fmt.Sprintf("line%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCountInvariance(t *testing.T) {
	// The result of a narrow pipeline must not depend on how the input is
	// partitioned.
	c := newTestContext(t, 2)
	f := func(seed uint64) bool {
		n := int(seed%100) + 1
		in := make([]int, n)
		for i := range in {
			in[i] = int(seed) + i
		}
		var ref []int
		for parts := 1; parts <= 9; parts += 4 {
			r := Filter(Map(Parallelize(c, in, parts), "x3", func(x int) int { return 3 * x }),
				"odd", func(x int) bool { return x%2 != 0 })
			got, err := Collect(r)
			if err != nil {
				return false
			}
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomPipelineSemantics drives randomly composed transformation chains
// through the engine and checks them against direct slice evaluation.
func TestRandomPipelineSemantics(t *testing.T) {
	c := newTestContext(t, 3)
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		rr := r.Split(uint64(trial))
		n := rr.Intn(200) + 1
		in := make([]int, n)
		for i := range in {
			in[i] = rr.Intn(1000) - 500
		}
		want := append([]int(nil), in...)
		rddV := Parallelize(c, in, rr.Intn(6)+1)
		steps := rr.Intn(5) + 1
		for s := 0; s < steps; s++ {
			switch rr.Intn(4) {
			case 0:
				k := rr.Intn(7) + 1
				rddV = Map(rddV, "mul", func(x int) int { return x * k })
				for i := range want {
					want[i] *= k
				}
			case 1:
				m := rr.Intn(5) + 2
				rddV = Filter(rddV, "mod", func(x int) bool { return x%m != 0 })
				var kept []int
				for _, x := range want {
					if x%m != 0 {
						kept = append(kept, x)
					}
				}
				want = kept
			case 2:
				rddV = FlatMap(rddV, "pair", func(x int) []int { return []int{x, -x} })
				var doubled []int
				for _, x := range want {
					doubled = append(doubled, x, -x)
				}
				want = doubled
			case 3:
				// A pipeline breaker between two fused segments: the fold
				// holds the partition and emits it only at finish.
				d := rr.Intn(9) - 4
				rddV = FoldPartition(rddV, "shift", func(Task) (func(int), func() []int) {
					var out []int
					return func(x int) { out = append(out, x+d) }, func() []int { return out }
				})
				for i := range want {
					want[i] += d
				}
			}
		}
		got, err := Collect(rddV)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d elements, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// collectLines collects a TextFile RDD as strings, each a copy of its line.
func collectLines(r *RDD[[]byte]) ([]string, error) {
	got, err := Collect(r)
	out := make([]string, len(got))
	for i, l := range got {
		out[i] = string(l)
	}
	return out, err
}

// TestTextFileLineSetIgnoresGeometry pins TextFile's line set against the
// whole file's: split at every newline, interior blank lines kept, closing
// newlines starting no line — for every block size, including ones that end
// a block on a blank line or split a run of closing newlines across blocks,
// and for every minPartitions sub-split.
func TestTextFileLineSetIgnoresGeometry(t *testing.T) {
	texts := []string{
		"a\n\nb\n",
		"a\n\n\n",
		"\n\na\n\n",
		"ab\n\ncd\n\n\nef\n\n",
		"a\nb\nc",
		"\n",
		"\n\n\n",
		"",
		"x",
		"line one\n\n\n\nline five\nsix\n",
	}
	for _, text := range texts {
		var want []string
		if trimmed := strings.TrimRight(text, "\n"); trimmed != "" {
			want = strings.Split(trimmed, "\n")
		}
		for _, blockSize := range []int{2, 3, 5, 7, 1 << 20} {
			c, err := New(Config{
				Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
				DFSBlockSize: blockSize,
				Seed:         7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.FS().Write("g.txt", []byte(text)); err != nil {
				t.Fatal(err)
			}
			for _, minParts := range []int{0, 2, 3, 7, 64} {
				r, err := c.TextFile("g.txt", minParts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := collectLines(r)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
					t.Errorf("%q at block size %d, minPartitions %d: lines %q, want %q",
						text, blockSize, minParts, got, want)
				}
			}
		}
	}
}

// TestTextFileLinesAliasNothingWritable checks the aliasing contract: lines
// are the staged bytes, read in place, yet appending to one reallocates
// rather than overwriting the newline and the next line behind it.
func TestTextFileLinesAliasNothingWritable(t *testing.T) {
	c := newTestContext(t, 2)
	const text = "alpha\nbeta\n\ngamma\n"
	if _, err := c.FS().Write("a.txt", []byte(text)); err != nil {
		t.Fatal(err)
	}
	r, err := c.TextFile("a.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lines {
		if cap(l) != len(l) {
			t.Errorf("line %d %q has capacity %d beyond its length", i, l, cap(l))
		}
		_ = append(l, "XXXX"...)
	}
	got, err := c.FS().ReadAll("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != text {
		t.Fatalf("staged file reads %q after appending to its lines, want %q", got, text)
	}
}
