// Fuzzing the columnar text codec: AppendTextRow must never panic, must
// leave the block untouched when it rejects a row, must decide every row
// exactly as the tokenizer alone would (accept/reject, error text, packed
// bytes, allele count — whichever of its two paths packed the row), and
// whatever it accepts must survive a WriteTextRow/AppendTextRow round trip bit
// for bit. Seed corpus under testdata/fuzz/FuzzGenoBlockTextRoundTrip; `make
// fuzz-smoke` gives the target a 10-second budget.

package data

import (
	"strings"
	"testing"
)

func FuzzGenoBlockTextRoundTrip(f *testing.F) {
	f.Add(4, "0 1 2 0")
	f.Add(3, "2 2 2")
	f.Add(2, "0 NA")
	f.Add(5, " 1\t0 2 1 0 ")
	f.Add(0, "")
	f.Add(1, "3")
	f.Add(2, "0 1 2") // surplus field
	// Around the word-at-a-time path: every patient count mod 4 (whole words
	// then a 7-, 1-, 3- or 5-byte final group), one patient, and every way a
	// row can be one byte off canonical.
	for _, patients := range []int{1, 4, 8, 9, 10, 11, 12, 511} {
		f.Add(patients, canonicalRow(patients))
	}
	f.Add(511, strings.TrimSuffix(strings.Repeat("2 ", 511), " ")) // widest row, largest allele count
	f.Add(8, "0 1 2 0  1 2 0 1")                                   // double space inside a word
	f.Add(2, "0  1")
	f.Add(2, "0\t1")
	f.Add(8, "0 1 2 0\t1 2 0 1")
	f.Add(8, "0 1 2 0 1 2 0 1 ") // trailing blank
	f.Add(8, " 0 1 2 0 1 2 0 1") // leading blank
	f.Add(8, "0 1 2 3 1 2 0 1")  // 3 in a word
	f.Add(9, "0 1 2 0 1 2 0 1 3")
	f.Add(8, "0 1 2 0 1 2 10 1")
	f.Add(4, "0 10 2 0")
	f.Add(2, "011")                    // a digit where the final group's separator belongs
	f.Add(10, "0 1 2 0 1 2 0 1 2x0")   // the same after whole words
	f.Add(8, "0 1 2 0 1 \xc3\xa9 0 1") // non-ASCII bytes where a digit and a space belong
	f.Add(8, "0 1 2 0 1 2 0")          // a field short, a word long
	f.Add(7, "0 1 2 0 1 2 0 1")        // surplus field, final group a whole word
	f.Fuzz(func(t *testing.T, patients int, fields string) {
		// Bound the row width so the fuzzer explores codes, not allocations.
		if patients < 0 {
			patients = -patients
		}
		patients %= 512

		b := NewGenoBlock(patients, 1)
		err := b.AppendTextRow(11, fields)

		// The tokenizer alone on the same fields is the codec's contract.
		row := make([]byte, b.RowBytes)
		count, tokErr := packTokens(fields, row, patients)
		if (err == nil) != (tokErr == nil) || (err != nil && err.Error() != tokErr.Error()) {
			t.Fatalf("AppendTextRow(%q) = %v, the tokenizer alone says %v", fields, err, tokErr)
		}
		if err != nil {
			if b.Rows() != 0 || len(b.Packed) != 0 {
				t.Fatalf("rejected row left partial state: %d rows, %d packed bytes", b.Rows(), len(b.Packed))
			}
			return
		}
		if string(b.Packed) != string(row) || b.Counts[0] != count {
			t.Fatalf("AppendTextRow(%q) packed %x count %d, the tokenizer alone %x count %d",
				fields, b.Packed, b.Counts[0], row, count)
		}
		// Whatever the word-at-a-time path takes, it packs as the tokenizer does.
		fast := make([]byte, b.RowBytes)
		if c, ok := packCanonical(fields, fast, patients); ok && (string(fast) != string(row) || c != count) {
			t.Fatalf("packCanonical(%q) packed %x count %d, the tokenizer %x count %d", fields, fast, c, row, count)
		}
		if b.Rows() != 1 || len(b.Packed) != b.RowBytes {
			t.Fatalf("accepted row: %d rows, %d packed bytes, want 1 row of %d bytes", b.Rows(), len(b.Packed), b.RowBytes)
		}
		// Text input carries only {0,1,2}: the decode must never see missing.
		for i, g := range b.DecodeRow(0, nil) {
			if g < 0 || g > 2 {
				t.Fatalf("patient %d decoded to %d from text input %q", i, g, fields)
			}
		}
		// Round trip: rewrite the row as text and re-parse it.
		var sb strings.Builder
		b.WriteTextRow(0, &sb)
		line := strings.TrimSuffix(sb.String(), "\n")
		tab := strings.IndexByte(line, '\t')
		if tab < 0 {
			t.Fatalf("WriteTextRow produced no snp/genotype separator: %q", line)
		}
		b2 := NewGenoBlock(patients, 1)
		if err := b2.AppendTextRow(11, line[tab+1:]); err != nil {
			t.Fatalf("re-parsing written row %q: %v", line, err)
		}
		if string(b.Packed) != string(b2.Packed) {
			t.Fatalf("round trip changed packed bytes: %x -> %x (input %q)", b.Packed, b2.Packed, fields)
		}
		if b.Counts[0] != b2.Counts[0] || b.SNPs[0] != b2.SNPs[0] {
			t.Fatalf("round trip changed row summary: count %d->%d, snp %d->%d",
				b.Counts[0], b2.Counts[0], b.SNPs[0], b2.SNPs[0])
		}
	})
}
