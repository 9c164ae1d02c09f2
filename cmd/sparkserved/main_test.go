package main

import (
	"bytes"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/dfs"
	"sparkscore/internal/gen"
	"sparkscore/internal/rng"
)

// TestStagePhenoMatrixHandsOverExactBytes: the DFS keeps the slice it is
// handed for the server's lifetime, so the staged expression matrix must
// carry no slack past its text (cap == len of its last block, which ends
// where the handed slice ends), and its bytes must be WritePhenoMatrix's.
func TestStagePhenoMatrixHandsOverExactBytes(t *testing.T) {
	for _, phenos := range []int{1, 40, 300} {
		fs, err := dfs.New(3, 64<<10, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		expr := gen.ExpressionMatrix(gen.Config{Patients: 60}, rng.New(uint64(phenos)), phenos)
		if err := stagePhenoMatrix(fs, "input/phenomatrix.txt", expr); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("input/phenomatrix.txt")
		if err != nil {
			t.Fatal(err)
		}
		last := f.Blocks[len(f.Blocks)-1].Data
		if cap(last) != len(last) {
			t.Errorf("%d phenotypes: the staged text's last block has len %d, cap %d", phenos, len(last), cap(last))
		}
		var want bytes.Buffer
		if err := data.WritePhenoMatrix(&want, expr); err != nil {
			t.Fatal(err)
		}
		if got, err := fs.ReadAll("input/phenomatrix.txt"); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d phenotypes: staged %d bytes (err %v), want WritePhenoMatrix's %d", phenos, len(got), err, want.Len())
		}
	}
}
