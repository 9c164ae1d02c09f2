package rdd

import (
	"math"
	"testing"
	"testing/quick"

	"sparkscore/internal/rng"
)

// makespan schedules durations greedily over slots core slots starting at
// time 0, as a stage's executor does, and returns the last completion time.
func makespan(durations []float64, slots int) float64 {
	p := newSlotPool(slots)
	last := 0.0
	for _, d := range durations {
		last = max(last, p.run(d))
	}
	return last
}

func TestSlotPoolSequentialOnOneSlot(t *testing.T) {
	p := newSlotPool(1)
	if done := p.run(2); done != 2 {
		t.Fatalf("first task done at %v, want 2", done)
	}
	if done := p.run(3); done != 5 {
		t.Fatalf("second task done at %v, want 5", done)
	}
}

func TestSlotPoolParallelism(t *testing.T) {
	p := newSlotPool(2)
	if a, b := p.run(4), p.run(4); a != 4 || b != 4 {
		t.Fatalf("two tasks on two slots finish at %v and %v, want 4", a, b)
	}
	if done := p.run(1); done != 5 { // lands on whichever slot frees at 4
		t.Fatalf("third task done at %v, want 5", done)
	}
}

func TestSlotPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newSlotPool(0) did not panic")
		}
	}()
	newSlotPool(0)
}

func TestSlotPoolNegativeDurationPanics(t *testing.T) {
	p := newSlotPool(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	p.run(-1)
}

func TestMakespanEqualTasks(t *testing.T) {
	// 8 unit tasks on 4 slots: exactly two waves.
	d := make([]float64, 8)
	for i := range d {
		d[i] = 1
	}
	if m := makespan(d, 4); m != 2 {
		t.Fatalf("makespan %v, want 2", m)
	}
}

func TestMakespanBounds(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(50) + 1
		slots := rr.Intn(8) + 1
		var total, longest float64
		d := make([]float64, n)
		for i := range d {
			d[i] = rr.Float64() * 10
			total += d[i]
			if d[i] > longest {
				longest = d[i]
			}
		}
		m := makespan(d, slots)
		lower := math.Max(total/float64(slots), longest)
		// Greedy list scheduling is a 2-approximation; and it can never beat
		// the area/critical-path lower bound.
		return m >= lower-1e-9 && m <= 2*lower+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanMoreSlotsNeverSlower(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		n := rr.Intn(40) + 1
		d := make([]float64, n)
		for i := range d {
			d[i] = rr.Float64() * 5
		}
		prev := math.Inf(1)
		for slots := 1; slots <= 8; slots *= 2 {
			m := makespan(d, slots)
			if m > prev+1e-9 {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
