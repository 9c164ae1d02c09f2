package data

import (
	"strings"
	"testing"
)

func TestGenoBlockRoundTrip(t *testing.T) {
	for _, patients := range []int{1, 3, 4, 7, 8, 17} {
		b := NewGenoBlock(patients, 4)
		rows := [][]Genotype{
			make([]Genotype, patients),
			make([]Genotype, patients),
			make([]Genotype, patients),
		}
		for r := range rows {
			for i := range rows[r] {
				rows[r][i] = Genotype((r + i) % 3)
			}
		}
		rows[2][0] = MissingGenotype
		for r, g := range rows {
			if err := b.AppendRow(100+r, g); err != nil {
				t.Fatalf("patients=%d row %d: %v", patients, r, err)
			}
		}
		if b.Rows() != 3 {
			t.Fatalf("Rows = %d", b.Rows())
		}
		var dec []Genotype
		for r, want := range rows {
			dec = b.DecodeRow(r, dec)
			if len(dec) != patients {
				t.Fatalf("decode length %d, want %d", len(dec), patients)
			}
			for i := range want {
				if dec[i] != want[i] {
					t.Fatalf("patients=%d row %d patient %d: decoded %d, want %d",
						patients, r, i, dec[i], want[i])
				}
			}
			var wantCount int32
			for _, v := range want {
				if v > 0 {
					wantCount += int32(v)
				}
			}
			if b.Counts[r] != wantCount {
				t.Fatalf("row %d allele count %d, want %d", r, b.Counts[r], wantCount)
			}
			if b.SNPs[r] != int32(100+r) {
				t.Fatalf("row %d snp %d, want %d", r, b.SNPs[r], 100+r)
			}
		}
	}
}

func TestGenoBlockAppendRowRejectsBadInput(t *testing.T) {
	b := NewGenoBlock(3, 1)
	if err := b.AppendRow(0, []Genotype{0, 1}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := b.AppendRow(0, []Genotype{0, 1, 3}); err == nil {
		t.Fatal("genotype 3 accepted")
	}
	if b.Rows() != 0 || len(b.Packed) != 0 {
		t.Fatalf("failed appends left state behind: %d rows, %d packed bytes", b.Rows(), len(b.Packed))
	}
}

func TestGenoBlockTextCodec(t *testing.T) {
	b := NewGenoBlock(5, 2)
	if err := b.AppendTextRow(7, "0 1 2 0 1"); err != nil {
		t.Fatal(err)
	}
	// Trailing and repeated whitespace must parse like strings.Fields.
	if err := b.AppendTextRow(8, " 2  0 1 0 2\t "); err != nil {
		t.Fatal(err)
	}
	want := [][]Genotype{{0, 1, 2, 0, 1}, {2, 0, 1, 0, 2}}
	var dec []Genotype
	for r := range want {
		dec = b.DecodeRow(r, dec)
		for i := range want[r] {
			if dec[i] != want[r][i] {
				t.Fatalf("row %d patient %d: %d, want %d", r, i, dec[i], want[r][i])
			}
		}
	}

	var sb strings.Builder
	b.WriteTextRow(0, &sb)
	if got := sb.String(); got != "7\t0 1 2 0 1\n" {
		t.Fatalf("WriteTextRow = %q", got)
	}

	if err := b.AppendTextRow(9, "0 1 2 0"); err == nil || !strings.Contains(err.Error(), "4 genotypes, want 5") {
		t.Fatalf("short row error = %v", err)
	}
	if err := b.AppendTextRow(9, "0 1 2 0 1 1"); err == nil || !strings.Contains(err.Error(), "want 5") {
		t.Fatalf("long row error = %v", err)
	}
	if err := b.AppendTextRow(9, "0 1 x 0 1"); err == nil || !strings.Contains(err.Error(), "field 3: bad genotype \"x\"") {
		t.Fatalf("bad genotype error = %v", err)
	}
	if b.Rows() != 2 {
		t.Fatalf("failed parses appended rows: %d", b.Rows())
	}
}

func TestPackUnpackGenotypes(t *testing.T) {
	g := []Genotype{0, 1, 2, MissingGenotype, 2, 2, 0}
	packed := make([]byte, BlockRowBytes(len(g)))
	if err := PackGenotypes(g, packed); err != nil {
		t.Fatal(err)
	}
	out := make([]Genotype, len(g))
	UnpackGenotypes(packed, out)
	for i := range g {
		if out[i] != g[i] {
			t.Fatalf("patient %d: %d, want %d", i, out[i], g[i])
		}
	}
	if err := PackGenotypes([]Genotype{5}, make([]byte, 1)); err == nil {
		t.Fatal("genotype 5 packed")
	}
}

func TestDecodePool(t *testing.T) {
	p := NewDecodePool(6)
	buf := p.Get()
	if len(buf) != 6 {
		t.Fatalf("pool buffer length %d", len(buf))
	}
	p.Put(buf)
	p.Put(make([]Genotype, 2)) // undersized buffers are dropped
	if got := p.Get(); len(got) != 6 {
		t.Fatalf("recycled buffer length %d", len(got))
	}
}
