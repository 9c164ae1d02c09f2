package rdd

import (
	"fmt"
	"sort"
	"testing"

	"sparkscore/internal/cluster"
)

func TestCartesianContents(t *testing.T) {
	c := newTestContext(t, 2)
	left := Parallelize(c, []int{10, 20, 30}, 2)
	right := Parallelize(c, []string{"a", "b"}, 2)
	prod := Cartesian(left, right)
	if got, want := prod.Partitions(), 4; got != want {
		t.Fatalf("partitions = %d, want %d", got, want)
	}
	got, err := Collect(prod)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("collected %d pairs, want 6", len(got))
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[fmt.Sprintf("%d%s", p.Left, p.Right)] = true
	}
	for _, want := range []string{"10a", "10b", "20a", "20b", "30a", "30b"} {
		if !seen[want] {
			t.Fatalf("missing pair %s (got %v)", want, got)
		}
	}
}

// TestCartesianPartitionOrderDeterministic pins the partition layout: output
// partition i*rightParts+j holds left partition i crossed with right
// partition j, rights innermost — the order the assoc merge relies on.
func TestCartesianPartitionOrderDeterministic(t *testing.T) {
	c := newTestContext(t, 2)
	left := Parallelize(c, []int{1, 2, 3, 4}, 2)  // partitions {1,2} {3,4}
	right := Parallelize(c, []int{10, 20, 30}, 3) // {10} {20} {30}
	got, err := Collect(Cartesian(left, right))
	if err != nil {
		t.Fatal(err)
	}
	var flat []int
	for _, p := range got {
		flat = append(flat, p.Left*100+p.Right)
	}
	want := []int{
		110, 210, // part 0: left{1,2} × right{10}
		120, 220, // part 1: left{1,2} × right{20}
		130, 230,
		310, 410,
		320, 420,
		330, 430,
	}
	if len(flat) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(flat), len(want))
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("pair %d = %d, want %d (full: %v)", i, flat[i], want[i], flat)
		}
	}
}

func TestCartesianComposesWithShuffleAndActions(t *testing.T) {
	c := newTestContext(t, 2)
	left := Parallelize(c, seq(20), 4)
	right := Parallelize(c, seq(5), 2)
	prod := Cartesian(left, right)
	sums := Map(prod, "sum", func(p Pair[int, int]) KV[int, int] {
		return KV[int, int]{K: p.Left % 3, V: p.Right}
	})
	ones := Map(sums, "one", func(kv KV[int, int]) KV[int, int] { return KV[int, int]{K: kv.K, V: 1} })
	counts, err := CollectAsMap(ReduceByKey(ones, func(a, b int) int { return a + b }, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 20 lefts × 5 rights = 100 pairs; keys 0,1 get 7 lefts, key 2 gets 6.
	if counts[0] != 35 || counts[1] != 35 || counts[2] != 30 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestCartesianOfShuffledRDDs runs a result stage whose narrow chain reaches
// two shuffles through two narrow parents: both map stages must run before it.
func TestCartesianOfShuffledRDDs(t *testing.T) {
	c := newTestContext(t, 2)
	add := func(x, y int) int { return x + y }
	a := ReduceByKey(Parallelize(c, []KV[int, int]{{1, 1}, {1, 2}}, 1), add, 1)
	b := ReduceByKey(Parallelize(c, []KV[int, int]{{2, 5}}, 1), add, 1)
	out, err := Collect(Cartesian(a, b))
	if err != nil {
		t.Fatal(err)
	}
	want := Pair[KV[int, int], KV[int, int]]{Left: KV[int, int]{1, 3}, Right: KV[int, int]{2, 5}}
	if len(out) != 1 || out[0] != want {
		t.Fatalf("cross of shuffles = %v, want [%v]", out, want)
	}
	if jobs := c.Jobs(); jobs[len(jobs)-1].Stages != 3 {
		t.Fatalf("stages = %d, want 3 (two map stages, one result)", jobs[len(jobs)-1].Stages)
	}
}

func TestCartesianWithCachedSide(t *testing.T) {
	c := newTestContext(t, 2)
	right := Map(Parallelize(c, seq(4), 2), "sq", func(x int) int { return x * x }).Cache()
	left := Parallelize(c, seq(6), 3)
	n, err := Count(Cartesian(left, right))
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Fatalf("count = %d, want 24", n)
	}
	// Second job reuses the cached right side.
	n2, err := Count(Cartesian(left, right))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 24 {
		t.Fatalf("recount = %d, want 24", n2)
	}
}

// TestCartesianUnderFaults runs the cross join under the chaos profile and
// checks the result set is unchanged: a lost output partition recomputes from
// its two lineage partitions.
func TestCartesianUnderFaults(t *testing.T) {
	collect := func(faults FaultProfile) []int {
		c, err := New(Config{
			Cluster: cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
			Seed:    11,
			Faults:  faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		left := Parallelize(c, seq(30), 5)
		right := Parallelize(c, seq(7), 3)
		got, err := Collect(Cartesian(left, right))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(got))
		for i, p := range got {
			out[i] = p.Left*1000 + p.Right
		}
		sort.Ints(out)
		return out
	}
	clean := collect(FaultProfile{})
	chaos := collect(FaultProfile{TaskCrashProb: 0.15, FetchFailureProb: 0.1, StragglerProb: 0.1})
	if len(clean) != len(chaos) {
		t.Fatalf("chaos changed pair count: %d vs %d", len(clean), len(chaos))
	}
	for i := range clean {
		if clean[i] != chaos[i] {
			t.Fatalf("pair %d differs under faults: %d vs %d", i, clean[i], chaos[i])
		}
	}
}
