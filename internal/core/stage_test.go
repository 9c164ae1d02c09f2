package core

import (
	"bytes"
	"io"
	"testing"

	"sparkscore/internal/cluster"
	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rdd"
)

// nopCloser lets a bytes.Buffer stand where a staged file is written.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// TestDFSBytesHandsOverExactBuffers: the DFS keeps every slice StageDataset
// hands it for as long as the file lives, so each staged file — the genotype
// text, whose buffer WriteGenotypes grows once to its size, and the small
// files, whose buffers grow by doubling — must end where its text ends
// (cap == len of its last block) and hold WriteDataset's bytes.
func TestDFSBytesHandsOverExactBuffers(t *testing.T) {
	ctx, err := rdd.New(rdd.Config{
		Cluster:      cluster.Config{Nodes: 3, Spec: cluster.M3TwoXLarge},
		DFSBlockSize: 64 << 10,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.Generate(gen.Config{Patients: 100, SNPs: 700, SNPSets: 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StageDataset(ctx, ds, "input"); err != nil {
		t.Fatal(err)
	}
	want := map[string]*bytes.Buffer{}
	err = data.WriteDataset(ds, func(name string) (io.WriteCloser, error) {
		want["input/"+name] = new(bytes.Buffer)
		return nopCloser{want["input/"+name]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want["input/"+data.GenotypesFile]; !ok {
		t.Fatalf("WriteDataset wrote no %s", data.GenotypesFile)
	}
	for name, text := range want {
		f, err := ctx.FS().Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if last := f.Blocks[len(f.Blocks)-1].Data; cap(last) != len(last) {
			t.Errorf("%s: the last of %d blocks has len %d, cap %d", name, len(f.Blocks), len(last), cap(last))
		}
		if got, err := ctx.FS().ReadAll(name); err != nil || !bytes.Equal(got, text.Bytes()) {
			t.Errorf("%s: staged %d bytes (err %v), WriteDataset wrote %d", name, len(got), err, text.Len())
		}
	}
}
