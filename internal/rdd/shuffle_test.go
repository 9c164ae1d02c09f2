package rdd

import (
	"testing"
	"testing/quick"

	"sparkscore/internal/rng"
)

func TestReduceByKeyMatchesSequentialFold(t *testing.T) {
	c := newTestContext(t, 3)
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(200) + 1
		keys := rr.Intn(10) + 1
		in := make([]KV[int, int], n)
		want := map[int]int{}
		for i := range in {
			k, v := rr.Intn(keys), rr.Intn(100)
			in[i] = KV[int, int]{K: k, V: v}
			want[k] += v
		}
		out, err := CollectAsMap(ReduceByKey(Parallelize(c, in, rr.Intn(6)+1),
			func(a, b int) int { return a + b }, rr.Intn(4)+1))
		if err != nil {
			return false
		}
		if len(out) != len(want) {
			return false
		}
		for k, v := range want {
			if out[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceByKeyStringKeys(t *testing.T) {
	c := newTestContext(t, 2)
	in := []KV[string, int]{{"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}, {"b", 5}}
	out, err := CollectAsMap(ReduceByKey(Parallelize(c, in, 3), func(a, b int) int { return a + b }, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out["a"] != 4 || out["b"] != 7 || out["c"] != 4 {
		t.Fatalf("out = %v", out)
	}
}

func TestReduceByKeyDeterministicOrder(t *testing.T) {
	run := func() []KV[int, int] {
		c := newTestContext(t, 3)
		in := make([]KV[int, int], 100)
		r := rng.New(9)
		for i := range in {
			in[i] = KV[int, int]{K: r.Intn(20), V: i}
		}
		out, err := Collect(ReduceByKey(Parallelize(c, in, 5), func(a, b int) int { return a + b }, 3))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output order not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReduceByKeyCountsTwoStages(t *testing.T) {
	c := newTestContext(t, 2)
	in := []KV[int, int]{{1, 1}, {2, 2}, {1, 3}}
	if _, err := Collect(ReduceByKey(Parallelize(c, in, 2), func(a, b int) int { return a + b }, 2)); err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()
	last := jobs[len(jobs)-1]
	if last.Stages != 2 {
		t.Fatalf("shuffle job ran %d stages, want 2 (map + reduce)", last.Stages)
	}
	if last.ShuffleBytes == 0 {
		t.Fatal("no shuffle bytes recorded")
	}
}

func TestShuffleOutputsReused(t *testing.T) {
	c := newTestContext(t, 2)
	in := []KV[int, int]{{1, 1}, {2, 2}, {1, 3}}
	r := ReduceByKey(Parallelize(c, in, 2), func(a, b int) int { return a + b }, 2)
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	jobs := c.Jobs()
	second := jobs[len(jobs)-1]
	// The second collect must skip the map stage: its outputs are retained.
	if second.Stages != 1 {
		t.Fatalf("second action re-ran the map stage (%d stages)", second.Stages)
	}
}

func TestGroupByKey(t *testing.T) {
	c := newTestContext(t, 2)
	in := []KV[int, string]{{1, "a"}, {2, "b"}, {1, "c"}, {1, "d"}}
	out, err := CollectAsMap(GroupByKey(Parallelize(c, in, 2), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[1]) != 3 || len(out[2]) != 1 {
		t.Fatalf("out = %v", out)
	}
	// Values of key 1 keep input order (a from partition 0; c, d later).
	joined := out[1][0] + out[1][1] + out[1][2]
	if joined != "acd" {
		t.Fatalf("grouped values %q, want deterministic \"acd\"", joined)
	}
}

func TestJoinInner(t *testing.T) {
	c := newTestContext(t, 2)
	left := Parallelize(c, []KV[int, string]{{1, "w1"}, {2, "w2"}, {3, "w3"}}, 2)
	right := Parallelize(c, []KV[int, float64]{{1, 10}, {3, 30}, {4, 40}}, 2)
	out, err := CollectAsMap(Join(left, right, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("join produced %d keys, want 2 (inner)", len(out))
	}
	if out[1].Left != "w1" || out[1].Right != 10 {
		t.Fatalf("out[1] = %+v", out[1])
	}
	if out[3].Left != "w3" || out[3].Right != 30 {
		t.Fatalf("out[3] = %+v", out[3])
	}
}

func TestJoinDuplicateKeysCrossProduct(t *testing.T) {
	c := newTestContext(t, 2)
	left := Parallelize(c, []KV[int, string]{{1, "a"}, {1, "b"}}, 1)
	right := Parallelize(c, []KV[int, int]{{1, 10}, {1, 20}}, 1)
	out, err := Collect(Join(left, right, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("cross product size %d, want 4", len(out))
	}
}

func TestJoinAfterReduceByKey(t *testing.T) {
	// A two-shuffle lineage: reduceByKey then join — three stages total.
	c := newTestContext(t, 2)
	scores := Parallelize(c, []KV[int, float64]{{0, 1}, {1, 2}, {0, 3}, {1, 4}}, 2)
	summed := ReduceByKey(scores, func(a, b float64) float64 { return a + b }, 2)
	weights := Parallelize(c, []KV[int, float64]{{0, 2}, {1, 3}}, 1)
	joined := Join(summed, weights, 2)
	prod := Map(joined, "apply", func(kv KV[int, JoinPair[float64, float64]]) KV[int, float64] {
		return KV[int, float64]{K: kv.K, V: kv.V.Left * kv.V.Right}
	})
	out, err := CollectAsMap(prod)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 8 || out[1] != 18 {
		t.Fatalf("out = %v, want map[0:8 1:18]", out)
	}
	jobs := c.Jobs()
	last := jobs[len(jobs)-1]
	if last.Stages != 4 {
		// reduceByKey map, join-left map (over reduced), join-right map, result
		t.Fatalf("stages = %d, want 4", last.Stages)
	}
}

func TestHashPartitionInRangeAndStable(t *testing.T) {
	for _, parts := range []int{1, 2, 7, 64} {
		for k := -100; k < 100; k++ {
			p := hashPartition(k, parts)
			if p < 0 || p >= parts {
				t.Fatalf("hashPartition(%d,%d) = %d", k, parts, p)
			}
			if p != hashPartition(k, parts) {
				t.Fatalf("hashPartition unstable for %d", k)
			}
		}
	}
	if hashPartition("snp-set-1", 8) != hashPartition("snp-set-1", 8) {
		t.Fatal("string hashing unstable")
	}
}

func TestHashPartitionSpreads(t *testing.T) {
	const parts = 8
	counts := make([]int, parts)
	for k := 0; k < 8000; k++ {
		counts[hashPartition(k, parts)]++
	}
	for i, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("partition %d received %d of 8000 keys", i, n)
		}
	}
}

func TestOrderedMap(t *testing.T) {
	m := newOrderedMap[string, int]()
	m.set("b", 1)
	m.set("a", 2)
	m.set("b", 3)
	if v, ok := m.get("b"); !ok || v != 3 {
		t.Fatalf("get(b) = %v,%v", v, ok)
	}
	if _, ok := m.get("zz"); ok {
		t.Fatal("missing key found")
	}
	pairs := m.pairs()
	if len(pairs) != 2 || pairs[0].K != "b" || pairs[1].K != "a" {
		t.Fatalf("pairs = %v (insertion order lost)", pairs)
	}
}

// BenchmarkReduceByKeyCombine runs one reduce-by-key job at the set-sum shape
// core's passes shuffle: 10 map partitions, each emitting one []float64 per
// key for the same 100 keys, reduced into 10 partitions. Each iteration
// builds a fresh ReduceByKey, so the map stage runs every time. With
// -benchmem, allocs/op shows the map side's combine: one map per map task,
// where one per (task, bucket) would add 90 maps a job.
func BenchmarkReduceByKeyCombine(b *testing.B) {
	const mapParts, reduceParts, keys, width = 10, 10, 100, 4
	c := newTestContext(b, 3)
	in := make([]KV[int, []float64], 0, mapParts*keys)
	for m := 0; m < mapParts; m++ {
		for k := 0; k < keys; k++ {
			v := make([]float64, width)
			for i := range v {
				v[i] = float64(m*keys+k) + float64(i)/width
			}
			in = append(in, KV[int, []float64]{K: k, V: v})
		}
	}
	src := Parallelize(c, in, mapParts)
	add := func(x, y []float64) []float64 {
		out := make([]float64, len(x))
		for i := range out {
			out[i] = x[i] + y[i]
		}
		return out
	}
	b.ReportAllocs()
	for b.Loop() {
		out, err := Collect(ReduceByKey(src, add, reduceParts))
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != keys {
			b.Fatalf("%d keys reduced, want %d", len(out), keys)
		}
	}
}
