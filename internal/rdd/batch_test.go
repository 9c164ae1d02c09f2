package rdd

import (
	"sync/atomic"
	"testing"
)

func TestSetSizeFuncDrivesCacheAccounting(t *testing.T) {
	c := newTestContext(t, 1)
	in := Parallelize(c, []int{1, 10, 100}, 1)
	sized := Map(in, "id", func(n int) int { return n }).
		SetSizeHint(64).
		SetSizeFunc(func(n int) int64 { return int64(n) }).
		Cache()
	if _, err := Collect(sized); err != nil {
		t.Fatal(err)
	}
	if got := c.CachedBytes(); got != 111 {
		t.Fatalf("cached %d bytes, want the per-element sum 111", got)
	}
}

// foldSums folds each partition of in to one (partition, count, sum) record,
// failing the test if add ever sees the stream out of upstream order.
func foldSums(t *testing.T, in *RDD[int], onAdd func(p, v int)) *RDD[[3]int] {
	return FoldPartition(in, "sum", func(task Task) (func(int), func() [][3]int) {
		p := task.Partition
		acc, last := [3]int{p, 0, 0}, -1
		return func(v int) {
				if onAdd != nil {
					onAdd(p, v)
				}
				if v <= last {
					t.Errorf("partition %d saw %d after %d", p, v, last)
				}
				last = v
				acc[1]++
				acc[2] += v
			}, func() [][3]int {
				return [][3]int{acc}
			}
	})
}

func TestFoldPartitionStreamsInOrderAndEmitsOnFinish(t *testing.T) {
	c := newTestContext(t, 2)
	// Seven partitions over five elements: two are empty and still finish.
	got, err := Collect(foldSums(t, Parallelize(c, seq(5), 7), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("%d records from 7 partitions, want one each", len(got))
	}
	count, sum := 0, 0
	for p, rec := range got {
		if rec[0] != p {
			t.Fatalf("record %d came from partition %d", p, rec[0])
		}
		count, sum = count+rec[1], sum+rec[2]
	}
	if count != 5 || sum != 10 {
		t.Fatalf("folded %d elements summing to %d, want 5 and 10", count, sum)
	}
}

func TestFoldPartitionStaysFused(t *testing.T) {
	c := newTestContext(t, 1)
	doubled := Map(Parallelize(c, seq(64), 2), "double", func(n int) int { return 2 * n })
	sums := Map(foldSums(t, doubled, nil), "sumOnly", func(rec [3]int) int { return rec[2] })
	if _, err := Collect(sums); err != nil {
		t.Fatal(err)
	}
	if chain := c.Jobs()[0].MaxFusedChain; chain < 4 {
		t.Fatalf("fused chain %d; FoldPartition broke fusion", chain)
	}
}

// TestFoldPartitionRetryStartsFromFreshState crashes one attempt halfway
// through a partition: the retry must run setup again, so the half-built
// accumulator of the dead attempt never reaches the result.
func TestFoldPartitionRetryStartsFromFreshState(t *testing.T) {
	c := newTestContext(t, 2)
	var crashed atomic.Bool
	got, err := Collect(foldSums(t, Parallelize(c, seq(40), 4), func(p, v int) {
		if p == 2 && v == 25 && crashed.CompareAndSwap(false, true) {
			panic("injected mid-partition crash")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Load() || c.Jobs()[0].TaskRetries == 0 {
		t.Fatalf("no attempt crashed (retries %d); the test exercised nothing", c.Jobs()[0].TaskRetries)
	}
	if want := [3]int{2, 10, 245}; got[2] != want {
		t.Fatalf("partition 2 folded to %v after a retry, want %v", got[2], want)
	}
}
