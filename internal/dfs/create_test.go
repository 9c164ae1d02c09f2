package dfs_test

import (
	"bytes"
	"strings"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/dfs"
	"sparkscore/internal/gen"
	"sparkscore/internal/rng"
)

// TestCreateHandsOverExactBytes: the DFS keeps the slice Create's Close hands
// Write, for as long as the file lives, so that slice must end where the text
// ends (cap == len of the file's last block, which ends where the handed slice
// ends) and hold the writer's bytes. A buffer grown once to its text's size,
// as WriteGenotypes grows its destination, is handed over as it is; a buffer
// grown by doubling is copied to exactly its text's size (a bytes.Clone would
// round the capacity up to the allocator's size class). The two stagers that
// write through Create — core.StageDataset and assoc.StagePhenotypes — each
// check their own files the same way.
func TestCreateHandsOverExactBytes(t *testing.T) {
	newFS := func(t *testing.T) *dfs.FS {
		fs, err := dfs.New(3, 64<<10, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	// check compares each staged file with the text its writer wrote.
	check := func(t *testing.T, fs *dfs.FS, want map[string][]byte) {
		t.Helper()
		for name, text := range want {
			f, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			if last := f.Blocks[len(f.Blocks)-1].Data; cap(last) != len(last) {
				t.Errorf("%s: the last of %d blocks has len %d, cap %d", name, len(f.Blocks), len(last), cap(last))
			}
			if got, err := fs.ReadAll(name); err != nil || !bytes.Equal(got, text) {
				t.Errorf("%s: staged %d bytes (err %v), its writer wrote %d", name, len(got), err, len(text))
			}
		}
	}
	geno := gen.Genotypes(gen.Config{Patients: 100, SNPs: 300}, rng.New(1))
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"grown once, handed over", func(t *testing.T) {
			fs := newFS(t)
			w := fs.Create("genotypes.txt")
			if err := data.WriteGenotypes(w, geno); err != nil {
				t.Fatal(err)
			}
			text := w.(interface{ Bytes() []byte }).Bytes()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f, _ := fs.Open("genotypes.txt")
			if first := f.Blocks[0].Data; &first[0] != &text[0] {
				t.Errorf("a %d-byte text in a buffer of cap %d was copied", len(text), cap(text))
			}
			check(t, fs, map[string][]byte{"genotypes.txt": text})
		}},
		{"grown by doubling, copied to size", func(t *testing.T) {
			fs := newFS(t)
			w := fs.Create("text")
			text := []byte(strings.Repeat("0123456789abcdef\n", 47165/17+1)[:47165])
			for rest := text; len(rest) > 0; rest = rest[min(100, len(rest)):] {
				if _, err := w.Write(rest[:min(100, len(rest))]); err != nil {
					t.Fatal(err)
				}
			}
			if b := w.(interface{ Bytes() []byte }).Bytes(); cap(b)-len(b) <= len(b)/8 {
				t.Fatalf("the buffer's cap %d leaves no more than an eighth of its %d bytes spare", cap(b), len(b))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, fs, map[string][]byte{"text": text})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
