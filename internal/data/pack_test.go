package data

import (
	"bytes"
	"testing"
)

// TestPackCanonicalAgreesWithTokenizer runs the canonical codec against the
// tokenizer exhaustively around its 64-byte groups: every row width from one
// patient to 140 (zero, one and two whole groups, then every number of
// trailing words and every final-group length). Every canonical row takes the
// fast path with the tokenizer's bytes and count; every single-byte
// corruption, at every position, takes it exactly when the row is still
// canonical, and then packs as the tokenizer does. It runs over each pack
// body the host has: the AVX2 groups and the word loop alone.
func TestPackCanonicalAgreesWithTokenizer(t *testing.T) {
	packBodies(t, testPackCanonicalAgreesWithTokenizer)
}

func testPackCanonicalAgreesWithTokenizer(t *testing.T) {
	corruptions := []byte{'0', '1', '2', '3', '4', '7', ' ', '\t', '$', 'x', '/', ':', 0x80, 0x72}
	for patients := 1; patients <= 140; patients++ {
		rb := BlockRowBytes(patients)
		check := func(fields []byte, wantOK bool) {
			t.Helper()
			fast := make([]byte, rb)
			count, ok := packCanonical(fields, fast, patients)
			if ok != wantOK {
				t.Fatalf("patients %d: packCanonical(%q) ok = %v, want %v", patients, fields, ok, wantOK)
			}
			if !ok {
				return
			}
			row := make([]byte, rb)
			tokCount, err := packTokens(fields, row, patients)
			if err != nil || !bytes.Equal(fast, row) || count != tokCount {
				t.Fatalf("patients %d: packCanonical(%q) packed %x count %d, the tokenizer %x count %d (%v)",
					patients, fields, fast, count, row, tokCount, err)
			}
		}
		rows := [][]byte{
			[]byte(canonicalRow(patients)),
			bytes.TrimSuffix(bytes.Repeat([]byte("0 "), patients), []byte(" ")),
			bytes.TrimSuffix(bytes.Repeat([]byte("2 "), patients), []byte(" ")),
		}
		for _, fields := range rows {
			check(fields, true)
		}
		fields := rows[0]
		mutated := make([]byte, len(fields))
		for pos := range fields {
			for _, c := range corruptions {
				if c == fields[pos] {
					continue
				}
				copy(mutated, fields)
				mutated[pos] = c
				check(mutated, pos%2 == 0 && c >= '0' && c <= '2')
			}
		}
	}
}
