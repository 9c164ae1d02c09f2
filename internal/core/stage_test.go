package core

import (
	"bytes"
	"testing"

	"sparkscore/internal/data"
	"sparkscore/internal/gen"
	"sparkscore/internal/rng"
)

// TestDFSBytesHandsOverExactBuffers: the genotype text, whose buffer
// WriteGenotypes grows once to its size, goes to the DFS as it is; a buffer
// with more than an eighth of slack goes as an exact-size copy.
func TestDFSBytesHandsOverExactBuffers(t *testing.T) {
	var exact bytes.Buffer
	if err := data.WriteGenotypes(&exact, gen.Genotypes(gen.Config{Patients: 100, SNPs: 300}, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	b := exact.Bytes()
	if got := dfsBytes(b); &got[0] != &b[0] || cap(got) != len(b) {
		t.Fatalf("a buffer grown to its text's size (len %d, cap %d) was copied or kept its slack", len(b), cap(b))
	}
	slack := append(make([]byte, 0, 4096), b[:1000]...)
	got := dfsBytes(slack)
	if &got[0] == &slack[0] || !bytes.Equal(got, slack) {
		t.Fatal("a buffer with 3 kB of slack on 1 kB of text was handed over, or copied wrong")
	}
}
