// Fuzzing the columnar text codec: AppendTextRow must never panic, must
// leave the block untouched when it rejects a row, must decide every row
// exactly as the tokenizer alone would (accept/reject, error text, packed
// bytes, allele count — whichever of its two paths packed the row), and
// whatever it accepts must survive the production round trip — WriteGenotypes,
// then ParseGenoText — bit for bit. Seed corpus under testdata/fuzz/FuzzGenoBlockTextRoundTrip, whose
// files carry rows of 64 bytes and more for the 64-byte groups; `make
// fuzz-smoke` gives the target a 10-second budget.

package data

import (
	"bytes"
	"strconv"
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
		count, tokErr := packTokens([]byte(fields), row, patients)
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
		if c, ok := packCanonical([]byte(fields), fast, patients); ok && (string(fast) != string(row) || c != count) {
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
		// Round trip: the decoded row through the production writer and the
		// production reader.
		var text bytes.Buffer
		if err := WriteGenotypes(&text, &GenotypeMatrix{Patients: patients, Rows: [][]Genotype{b.DecodeRow(0, nil)}}); err != nil {
			t.Fatal(err)
		}
		// A partition's text reaches the reader without the newline that
		// ends its last line, as rdd's TextSplits hands it over.
		var back []GenoBlock
		if err := ParseGenoText(bytes.TrimSuffix(text.Bytes(), []byte("\n")), patients, nil, func(blk GenoBlock) bool {
			back = append(back, blk)
			return true
		}); err != nil {
			t.Fatalf("re-parsing written row %q: %v", text.String(), err)
		}
		if len(back) != 1 || back[0].Rows() != 1 {
			t.Fatalf("written row %q parsed to %d blocks, want one block of one row", text.String(), len(back))
		}
		if string(b.Packed) != string(back[0].Packed) {
			t.Fatalf("round trip changed packed bytes: %x -> %x (input %q)", b.Packed, back[0].Packed, fields)
		}
		if b.Counts[0] != back[0].Counts[0] || back[0].SNPs[0] != 0 {
			t.Fatalf("round trip changed row summary: count %d->%d, snp %d, want 0",
				b.Counts[0], back[0].Counts[0], back[0].SNPs[0])
		}
	})
}

// FuzzParseGenoText holds the one-pass splitter to the line-at-a-time
// oracle: on arbitrary partition text, patient counts and keep-sets,
// ParseGenoText must yield the blocks oracleGenoText builds (SNPs, counts,
// packed bytes, block by block) and fail with its error text, or succeed
// both. keepBits keeps SNP s when bit s%16 is set; zero is a nil keep.
func FuzzParseGenoText(f *testing.F) {
	row := func(snp, patients int) string { return strconv.Itoa(snp) + "\t" + canonicalRow(patients) }
	lines := func(ls ...string) string { return strings.Join(ls, "\n") }
	f.Add(3, uint16(0), lines(row(1, 3), row(2, 3)))
	f.Add(3, uint16(0), "1\t0 1\n2\n3\t0 1 2")                 // a newline inside the predicted span
	f.Add(3, uint16(0), "5\t0 1\n7\n8\t0 1 2")                 // a short line, then one ending at its predicted width
	f.Add(3, uint16(0), "5\t0 1\n\t0 1\n8\t0 1 2")             // the same, the next line's id empty
	f.Add(3, uint16(0), lines("007\t0 1 2", row(8, 3)))        // leading zeros
	f.Add(3, uint16(0), lines("+7\t0 1 2", row(8, 3)))         // a sign
	f.Add(3, uint16(0), lines("2147483648\t0 1 2", row(8, 3))) // beyond int32
	f.Add(3, uint16(0), lines("2147483647\t0 1 2", row(8, 3))) // the largest id that fits
	f.Add(3, uint16(0), lines("00000000007\t0 1 2"))           // eleven digits
	f.Add(3, uint16(0), lines("\t0 1 2", row(8, 3)))           // no id at all
	f.Add(3, uint16(0), lines("", row(1, 3)))                  // empty first line
	f.Add(3, uint16(0), lines(row(1, 3), "", row(2, 3)))       // empty middle line
	f.Add(3, uint16(0), lines(row(1, 3), row(2, 3), ""))       // empty last line
	f.Add(3, uint16(0), "")                                    // no text at all
	f.Add(3, uint16(0), row(1, 3)+"\r\n"+row(2, 3))            // a carriage return
	f.Add(3, uint16(1<<3), "1\t0\n2\t0\n3\t0 1 2")             // rejected rows whose spans hold a newline
	f.Add(3, uint16(1<<3), "1\t0 x\n3\t0 1 2")                 // a rejected row's bad genotype goes unnoticed
	f.Add(3, uint16(1<<2), lines(row(1, 3), row(3, 3)))        // every row rejected: no block
	f.Add(0, uint16(0), "1\t\n2\t")                            // no patients
	f.Add(0, uint16(0), "1\t\n2")                              // no patients, digits to the end
	f.Add(1, uint16(0), "1\t2\n2\t3")
	f.Add(40, uint16(0), lines(row(1, 40), row(2, 40)))          // a whole 64-byte group
	f.Add(40, uint16(0xaaaa), lines(row(1, 40), row(2, 40)+" ")) // a trailing blank
	var many []string
	for snp := range 300 {
		many = append(many, row(snp, 5))
	}
	f.Add(5, uint16(0x7fff), lines(many...)) // two blocks, some rows rejected
	many[270] = "270\t0 1  2 0 1"
	f.Add(5, uint16(0), lines(many...)) // an error in the second block
	f.Fuzz(func(t *testing.T, patients int, keepBits uint16, text string) {
		if patients < 0 {
			patients = -patients
		}
		patients %= 300
		var keep func(snp int) bool
		if keepBits != 0 {
			keep = func(snp int) bool { return keepBits>>(snp%16)&1 != 0 }
		}
		got, err := parseGenoText([]byte(text), patients, keep)
		want, wantErr := oracleGenoText([]byte(text), patients, keep)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseGenoText(%q) = %v, the oracle %v", text, err, wantErr)
		}
		if !sameBlocks(got, want) {
			t.Fatalf("ParseGenoText(%q) yielded %+v, the oracle %+v", text, got, want)
		}
	})
}
