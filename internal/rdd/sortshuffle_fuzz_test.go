// Fuzzing the spill-frame reader: decodeFrameBytes is the reduce side's
// parser of run-file bytes, and a truncated or corrupt frame (lost node
// mid-write, mangled index) must surface as an error that the fetch-failure
// machinery converts into a stage retry — never as a panic that kills the
// driver. Seed corpus under testdata/fuzz/FuzzDecodeFrameBytes — one seed is a
// frame of a foreign record type (a third field): gob skips the field or
// errors, it never panics; `make fuzz-smoke` gives the target a 10-second
// budget.

package rdd

import (
	"reflect"
	"testing"
)

func fuzzFrameRecs() []spillRec[int, int] {
	return []spillRec[int, int]{
		{K: 7, V: 1},
		{K: 3, V: 2},
		{K: 7, V: 3},
	}
}

func FuzzDecodeFrameBytes(f *testing.F) {
	plain := encodeRunFrame(fuzzFrameRecs())
	f.Add(plain, int64(0), int64(len(plain)))
	f.Add(plain, int64(5), int64(len(plain)-5))                // offset inside the frame
	f.Add(plain, int64(len(plain)), int64(0))                  // empty frame at EOF
	f.Add(plain[:len(plain)/2], int64(0), int64(len(plain)/2)) // truncated
	f.Add(plain, int64(-1), int64(4))                          // negative offset
	f.Add(plain, int64(3), int64(1)<<40)                       // length past EOF
	f.Add([]byte{}, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, off, length int64) {
		recs, err := decodeFrameBytes[int, int](raw, off, length)
		if err != nil && recs != nil {
			t.Fatalf("error %v returned alongside %d records", err, len(recs))
		}
	})
}

// TestDecodeFrameBytesRoundTrip pins the happy path the fuzz target cannot
// reach by mutation alone: encode -> decode is the identity, and out-of-range
// indices fail cleanly.
func TestDecodeFrameBytesRoundTrip(t *testing.T) {
	want := fuzzFrameRecs()
	raw := encodeRunFrame(want)
	got, err := decodeFrameBytes[int, int](raw, 0, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed records: %+v -> %+v", want, got)
	}
	if _, err := decodeFrameBytes[int, int](raw, int64(len(raw)), 1); err == nil {
		t.Fatal("frame past EOF decoded without error")
	}
	if _, err := decodeFrameBytes[int, int](raw, -1, int64(len(raw))); err == nil {
		t.Fatal("negative offset decoded without error")
	}
}
