package data

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
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

// TestSNPIDBeyondInt32Rejected is the regression test for ids that used to
// wrap silently into the block's int32 column: "4294967301\t0 1 2" was
// accepted and stored as SNP 5.
func TestSNPIDBeyondInt32Rejected(t *testing.T) {
	wrapping, err := strconv.Atoi("4294967301") // int32(wrapping) == 5
	if err != nil {
		t.Skip("int cannot hold an id beyond int32")
	}
	line := []byte(strconv.Itoa(wrapping) + "\t0 1 2")
	if _, _, err := ParseSNPPrefix(line); err == nil || !strings.Contains(err.Error(), "SNP id 4294967301") {
		t.Fatalf("ParseSNPPrefix(%q) = %v, want an error naming the id", line, err)
	}
	b := NewGenoBlock(3, 1)
	for name, err := range map[string]error{
		"AppendTextRow": b.AppendTextRow(wrapping, "0 1 2"),
		"AppendRow":     b.AppendRow(wrapping, []Genotype{0, 1, 2}),
	} {
		if err == nil || !strings.Contains(err.Error(), "SNP id 4294967301") {
			t.Errorf("%s = %v, want an error naming the id", name, err)
		}
	}
	if b.Rows() != 0 || len(b.Packed) != 0 {
		t.Fatalf("rejected ids left state behind: %d rows, %d packed bytes", b.Rows(), len(b.Packed))
	}
	// The largest id the column holds still goes in.
	if snp, _, err := ParseSNPPrefix([]byte(strconv.Itoa(math.MaxInt32) + "\t0 1 2")); err != nil || snp != math.MaxInt32 {
		t.Fatalf("ParseSNPPrefix(MaxInt32) = %d, %v", snp, err)
	}
	if err := b.AppendTextRow(math.MaxInt32, "0 1 2"); err != nil || b.SNPs[0] != math.MaxInt32 {
		t.Fatalf("AppendTextRow(MaxInt32) = %v, stored ids %v", err, b.SNPs)
	}
}

// TestAppendTextRowCountsWideRow packs a row whose allele count (140 000)
// exceeds anything a 16-bit lane could total: the word-at-a-time path sums
// each word's four lanes before adding, so no row width overflows it.
func TestAppendTextRowCountsWideRow(t *testing.T) {
	const patients = 70_000
	fields := strings.TrimSuffix(strings.Repeat("2 ", patients), " ")
	b := NewGenoBlock(patients, 1)
	if _, ok := packCanonical([]byte(fields), make([]byte, b.RowBytes), patients); !ok {
		t.Fatal("canonical row not taken by the word-at-a-time path")
	}
	if err := b.AppendTextRow(0, fields); err != nil {
		t.Fatal(err)
	}
	if b.Counts[0] != 2*patients {
		t.Fatalf("allele count %d, want %d", b.Counts[0], 2*patients)
	}
	for i, v := range b.Packed {
		if v != 0 { // code 00 = genotype 2
			t.Fatalf("packed byte %d = %#x, want 0", i, v)
		}
	}
}

// canonicalRow renders patients genotypes in the encoding WriteGenotypes
// emits, cycling through every dosage.
func canonicalRow(patients int) string {
	var sb strings.Builder
	for i := 0; i < patients; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte("0120021"[i%7])
	}
	return sb.String()
}

// ParseGenoBlock is the line-at-a-time ingest ParseGenoText must equal: it
// packs a batch of lines into one GenoBlock — ParseSNPPrefix on each
// non-empty line, then the text codec for the SNPs keep accepts (nil keeps
// all) — and the first bad line fails the whole batch, with an error naming
// its SNP once the id has parsed.
func ParseGenoBlock(lines [][]byte, patients int, keep func(snp int) bool) (GenoBlock, error) {
	blk := NewGenoBlock(patients, len(lines))
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		snp, fields, err := ParseSNPPrefix(line)
		if err != nil {
			return GenoBlock{}, err
		}
		if keep != nil && !keep(snp) {
			continue
		}
		if err := blk.appendText(snp, fields); err != nil {
			return GenoBlock{}, fmt.Errorf("data: SNP %d: %w", snp, err)
		}
	}
	return blk, nil
}

// oracleGenoText is ParseGenoText by ParseGenoBlock: the text split at every
// newline, one block per GenoBlockRows lines, an empty one dropped, stopping
// at the first error.
func oracleGenoText(text []byte, patients int, keep func(snp int) bool) ([]GenoBlock, error) {
	lines := bytes.Split(text, []byte{'\n'})
	var blocks []GenoBlock
	for lo := 0; lo < len(lines); lo += GenoBlockRows {
		blk, err := ParseGenoBlock(lines[lo:min(lo+GenoBlockRows, len(lines))], patients, keep)
		if err != nil {
			return blocks, err
		}
		if blk.Rows() > 0 {
			blocks = append(blocks, blk)
		}
	}
	return blocks, nil
}

// parseGenoText collects ParseGenoText's blocks.
func parseGenoText(text []byte, patients int, keep func(snp int) bool) ([]GenoBlock, error) {
	var blocks []GenoBlock
	err := ParseGenoText(text, patients, keep, func(b GenoBlock) bool {
		blocks = append(blocks, b)
		return true
	})
	return blocks, err
}

// sameBlocks reports whether two block lists hold the same rows, block by
// block (capacities aside).
func sameBlocks(a, b []GenoBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Patients != b[i].Patients || a[i].RowBytes != b[i].RowBytes ||
			!slices.Equal(a[i].SNPs, b[i].SNPs) || !slices.Equal(a[i].Counts, b[i].Counts) ||
			!bytes.Equal(a[i].Packed, b[i].Packed) {
			return false
		}
	}
	return true
}

// BenchmarkParseGenoText prices the ingest per genotype at perm_scan's row
// width, over partition text as TextSplits yields it, canonical rows: one
// block's 256 rows, which stay in cache across ops, and a 10 000-row text of
// about 20 MB, which does not, so each op pays the text's first touch from
// memory as a genotype scan does.
func BenchmarkParseGenoText(b *testing.B) {
	const patients = 1000
	row := canonicalRow(patients)
	for _, bc := range []struct {
		name string
		rows int
	}{{"block", GenoBlockRows}, {"20MB", 10_000}} {
		b.Run(bc.name, func(b *testing.B) {
			var text []byte
			for snp := 0; snp < bc.rows; snp++ {
				text = fmt.Appendf(text, "%d\t%s\n", snp, row)
			}
			text = text[:len(text)-1]
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := ParseGenoText(text, patients, nil, func(blk GenoBlock) bool {
					parsedBlock = blk
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.rows*patients), "ns/genotype")
		})
	}
}

// parsedBlock keeps BenchmarkParseGenoText's result live.
var parsedBlock GenoBlock

// byteLines returns the lines as TextFile would yield them.
func byteLines(lines ...string) [][]byte {
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

// TestParseGenoBlock pins the shared ingest body, line by line and over a
// partition's text: kept rows pack as AppendTextRow packs them, a row keep
// rejects is skipped before its fields are looked at (so its bad genotype goes
// unnoticed), and a bad line fails with an error naming its SNP.
func TestParseGenoBlock(t *testing.T) {
	lines := byteLines("4\t0 1 2", "9\t0 x 2", "1\t2 2 0")
	keep := func(snp int) bool { return snp != 9 }
	blk, err := ParseGenoBlock(lines, 3, keep)
	if err != nil {
		t.Fatal(err)
	}
	want := NewGenoBlock(3, 2)
	for _, row := range []struct {
		snp    int
		fields string
	}{{4, "0 1 2"}, {1, "2 2 0"}} {
		if err := want.AppendTextRow(row.snp, row.fields); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(blk, want) {
		t.Fatalf("ParseGenoBlock = %+v, want %+v", blk, want)
	}
	if blocks, err := parseGenoText(bytes.Join(lines, []byte{'\n'}), 3, keep); err != nil || !sameBlocks(blocks, []GenoBlock{want}) {
		t.Fatalf("ParseGenoText = %+v, %v, want %+v", blocks, err, want)
	}
	for _, tc := range []struct{ line, msg string }{
		{"9\t0 x 2", `SNP 9: field 2: bad genotype "x"`},
		{"x\t0 1 2", `bad SNP id "x"`},
	} {
		if _, err := ParseGenoBlock(byteLines("4\t0 1 2", tc.line), 3, nil); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("ParseGenoBlock with line %q = %v, want an error containing %q", tc.line, err, tc.msg)
		}
		if _, err := parseGenoText([]byte("4\t0 1 2\n"+tc.line), 3, nil); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("ParseGenoText with line %q = %v, want an error containing %q", tc.line, err, tc.msg)
		}
	}
}

// TestParseGenoTextBlockGeometry packs 600 lines, every third one rejected by
// keep: blocks hold 256 lines each, skipped ones included, as the oracle's
// do; a keep that also rejects the whole second stretch of 256 lines yields
// no block for it and leaves the other two blocks their rows; and a yield
// that returns false ends the parse after that block.
func TestParseGenoTextBlockGeometry(t *testing.T) {
	const patients = 70 // two whole 64-byte groups, then words and a tail
	var text []byte
	for snp := 0; snp < 600; snp++ {
		text = fmt.Appendf(text, "%d\t%s\n", snp, canonicalRow(patients))
	}
	text = text[:len(text)-1]
	thirds := func(snp int) bool { return snp%3 != 0 }
	for _, tc := range []struct {
		name string
		keep func(snp int) bool
		rows string
	}{
		{"every third rejected", thirds, "[170 171 59]"},
		{"and lines 256–511", func(snp int) bool { return thirds(snp) && (snp < 256 || snp >= 512) }, "[170 59]"},
	} {
		got, err := parseGenoText(text, patients, tc.keep)
		want, wantErr := oracleGenoText(text, patients, tc.keep)
		if err != nil || wantErr != nil || !sameBlocks(got, want) {
			t.Fatalf("%s: ParseGenoText: %d blocks (%v), the oracle %d (%v), or they differ", tc.name, len(got), err, len(want), wantErr)
		}
		var rows []int
		for _, b := range got {
			rows = append(rows, b.Rows())
		}
		if fmt.Sprint(rows) != tc.rows {
			t.Fatalf("%s: blocks of %v rows, want %s", tc.name, rows, tc.rows)
		}
		if last := got[len(got)-1]; last.SNPs[0] != 512 {
			t.Fatalf("%s: the last block starts at SNP %d, want 512", tc.name, last.SNPs[0])
		}
	}
	calls := 0
	if err := ParseGenoText(text, patients, thirds, func(GenoBlock) bool { calls++; return false }); err != nil || calls != 1 {
		t.Fatalf("a yield that stops: %d calls, %v; want 1 call and no error", calls, err)
	}
}

// PackGenotypes packs g into dst, which must hold BlockRowBytes(len(g))
// zeroed bytes. Genotypes must be in {MissingGenotype, 0, 1, 2}. It is the
// codes table written out, the oracle the packed decoders are tested against.
func PackGenotypes(g []Genotype, dst []byte) error {
	if want := BlockRowBytes(len(g)); len(dst) < want {
		return fmt.Errorf("data: pack buffer holds %d bytes, want %d", len(dst), want)
	}
	for i, v := range g {
		if v < MissingGenotype || v > 2 {
			return fmt.Errorf("data: genotype %d at index %d outside {missing,0,1,2}", v, i)
		}
		dst[i>>2] |= genoCodes[v+1] << uint((i&3)*2)
	}
	return nil
}
