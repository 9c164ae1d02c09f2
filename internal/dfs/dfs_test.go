package dfs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sparkscore/internal/rng"
)

func mustFS(t *testing.T, nodes, blockSize, replication int) *FS {
	t.Helper()
	fs, err := New(nodes, blockSize, replication, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := mustFS(t, 4, 16, 2)
	content := []byte("line one\nline two\nline three\nline four is longer\n")
	if _, err := fs.Write("f", content); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("round trip mismatch:\n%q\n%q", got, content)
	}
}

func TestBlocksEndOnLineBoundaries(t *testing.T) {
	fs := mustFS(t, 3, 10, 1)
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "row %d with some padding\n", i)
	}
	f, err := fs.Write("f", []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(f.Blocks))
	}
	for i, b := range f.Blocks[:len(f.Blocks)-1] {
		if len(b.Data) == 0 || b.Data[len(b.Data)-1] != '\n' {
			t.Fatalf("block %d does not end on a newline", i)
		}
	}
}

func TestReplicationPlacement(t *testing.T) {
	fs := mustFS(t, 5, 8, 3)
	f, err := fs.Write("f", []byte("aaaa\nbbbb\ncccc\ndddd\neeee\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		if len(b.Locations) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(b.Locations))
		}
		seen := map[int]bool{}
		for _, n := range b.Locations {
			if n < 0 || n >= 5 {
				t.Fatalf("block %d replica on node %d outside cluster", i, n)
			}
			if seen[n] {
				t.Fatalf("block %d has duplicate replica on node %d", i, n)
			}
			seen[n] = true
		}
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := mustFS(t, 2, 8, 5)
	if fs.replication != 2 {
		t.Fatalf("replication %d, want capped to 2", fs.replication)
	}
}

func TestEmptyFileHasOnePartition(t *testing.T) {
	fs := mustFS(t, 2, 8, 1)
	f, err := fs.Write("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("empty file has %d blocks, want 1", len(f.Blocks))
	}
}

func TestOpenDeleteExists(t *testing.T) {
	fs := mustFS(t, 2, 8, 1)
	if fs.Exists("f") {
		t.Fatal("nonexistent file reported")
	}
	if _, err := fs.Open("f"); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	if _, err := fs.Write("f", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("f") {
		t.Fatal("written file missing")
	}
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("f") {
		t.Fatal("deleted file still exists")
	}
	if err := fs.Delete("f"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestOverwriteReplaces(t *testing.T) {
	fs := mustFS(t, 2, 8, 1)
	fs.Write("f", []byte("old content\n"))
	fs.Write("f", []byte("new\n"))
	got, _ := fs.ReadAll("f")
	if string(got) != "new\n" {
		t.Fatalf("after overwrite: %q", got)
	}
}

func TestWriteRejectsEmptyName(t *testing.T) {
	fs := mustFS(t, 2, 8, 1)
	if _, err := fs.Write("", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, 1, 1); err == nil {
		t.Fatal("zero nodes accepted")
	}
	fs, err := New(3, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.blockSize != DefaultBlockSize {
		t.Fatalf("default block size %d", fs.blockSize)
	}
	if fs.replication != 3 {
		t.Fatalf("default replication %d", fs.replication)
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		fs, err := New(rr.Intn(5)+1, rr.Intn(30)+5, rr.Intn(3)+1, seed)
		if err != nil {
			return false
		}
		var sb strings.Builder
		lines := rr.Intn(40)
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&sb, "%d\t%d\n", i, rr.Intn(1000))
		}
		content := []byte(sb.String())
		if _, err := fs.Write("f", content); err != nil {
			return false
		}
		got, err := fs.ReadAll("f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDropNodeRemovesReplicas(t *testing.T) {
	fs, err := New(4, 32, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "line-%03d\n", i)
	}
	content := []byte(sb.String())
	f, err := fs.Write("f", content)
	if err != nil {
		t.Fatal(err)
	}
	hadOnNode0 := false
	for b := range f.Blocks {
		for _, n := range fs.BlockLocations(f, b) {
			if n == 0 {
				hadOnNode0 = true
			}
		}
	}
	if !hadOnNode0 {
		t.Fatal("replica placement never used node 0; test needs a different seed")
	}
	fs.DropNode(0)
	for b := range f.Blocks {
		for _, n := range fs.BlockLocations(f, b) {
			if n == 0 {
				t.Fatalf("block %d still lists dropped node 0", b)
			}
		}
	}
	// Contents survive (HDFS re-replicates from surviving copies).
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("file contents changed after DropNode")
	}
}

func TestBlockLocationsSafeUnderConcurrentDrop(t *testing.T) {
	fs, err := New(6, 64, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "line-%04d\n", i)
	}
	f, err := fs.Write("f", []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < 5; n++ {
			fs.DropNode(n)
		}
	}()
	for i := 0; i < 1000; i++ {
		for b := range f.Blocks {
			locs := fs.BlockLocations(f, b)
			for _, n := range locs {
				if n < 0 || n >= 6 {
					t.Fatalf("corrupt location %d", n)
				}
			}
		}
	}
	<-done
}
