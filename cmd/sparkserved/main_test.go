package main

import (
	"bytes"
	"strings"
	"testing"

	"sparkscore/internal/assoc"
	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
	"sparkscore/internal/rng"
)

// TestStagePhenoMatrixHandsOverExactBytes: the DFS keeps the slice it is
// handed for the server's lifetime, so the expression matrix the server
// stages at phenoMatrixPath must carry no slack past its text (cap == len of
// its last block, which ends where the handed slice ends), and its bytes must
// be WritePhenoMatrix's.
func TestStagePhenoMatrixHandsOverExactBytes(t *testing.T) {
	for _, phenos := range []int{1, 40, 300} {
		ctx, err := rdd.New(rdd.Config{
			Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
			DFSBlockSize: 64 << 10,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		expr := gen.ExpressionMatrix(gen.Config{Patients: 60}, rng.New(uint64(phenos)), phenos)
		if err := assoc.StagePhenotypes(ctx, phenoMatrixPath, expr); err != nil {
			t.Fatal(err)
		}
		f, err := ctx.FS().Open(phenoMatrixPath)
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
		if got, err := ctx.FS().ReadAll(phenoMatrixPath); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d phenotypes: staged %d bytes (err %v), want WritePhenoMatrix's %d", phenos, len(got), err, want.Len())
		}
	}
}

// TestCheckEQTLFlags: a top-K below 1 is refused naming the flag — assoc.Config
// reads 0 as its default of 100 pairs, so -eqtl-top 0 used to serve 100 —
// as is a negative phenotype count; 0 phenotypes (the endpoint off) and a
// top-K of 1 are accepted.
func TestCheckEQTLFlags(t *testing.T) {
	for _, tc := range []struct {
		phenos, top int
		want        string
	}{
		{0, 100, ""},
		{4, 1, ""},
		{4, 0, "-eqtl-top 0: must be at least 1"},
		{0, -3, "-eqtl-top -3: must be at least 1"},
		{-2, 100, "-eqtl-phenos -2: must be non-negative"},
	} {
		err := checkEQTLFlags(tc.phenos, tc.top)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("checkEQTLFlags(%d, %d) = %v, want %q", tc.phenos, tc.top, err, tc.want)
		}
	}
}
