// Fuzzing the driver-side text readers: the genotype reader, which must read
// a row exactly as the analysis scan's codec does; the weights and phenotype
// readers, whose floats reach every analysis; and the SNP-set and covariate
// readers. A reader must return an error rather than panic, and whatever it
// accepts must be finite (non-negative, for a weight) and survive a
// write/read round trip through its writer bit for bit. Seed corpora under
// testdata/fuzz/FuzzReadWeights and testdata/fuzz/FuzzReadPhenotype, the
// others in the f.Add calls; `make fuzz-smoke` gives each target a 10-second
// budget.

package data

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzReadGenotypes reads arbitrary rows behind a first row of patients
// zeros, which fixes the width. The reader accepts the whole text exactly
// when ParseGenoText, the analysis scan, packs every row at that width and
// the ids are dense and unique; where the scan's first refused row is a
// field error, the reader refuses it with the scan's words, naming the line
// where the scan names the SNP, unless an earlier row repeats an id. The
// rows read as a whole file, and the text, must give an error or a matrix
// that WriteGenotypes writes and ReadGenotypes reads back unchanged.
func FuzzReadGenotypes(f *testing.F) {
	f.Add(3, "1\t0 1 2")
	f.Add(3, "1\t+1 0 2")
	f.Add(3, "1\t0 01 2")
	f.Add(3, "1\t-0 1 2")
	f.Add(3, "1\t0 1 2\r")
	f.Add(3, "1\t0\u00a01 2")
	f.Add(3, "1\t0\v1 2")
	f.Add(3, "1\t\t 2  0\t1 ")
	f.Add(3, "1\t0 1")
	f.Add(3, "1\t0 1 2 7")
	f.Add(2, "1\t0 3")
	f.Add(0, "1\t")
	f.Add(5, "1\t0 1 2\n1\t0 1")
	f.Add(2, "1\t1\t0 1\n0\t2 2\n\n")
	f.Add(2, "\n2\t0 1\n\n1\t2 2\n\n")  // blank lines, ids out of order
	f.Add(2, "1\t0 1\n   \n2\t2 2")     // a line of only white space
	f.Add(2, "1\t0 1\n1\t0 1\n2\t0 7")  // a repeated id before a bad field
	f.Add(2, "2\t0 1\n")                // a gap
	f.Add(2, "4294967296\t0 1\n1\t0 x") // an id beyond int32, then a bad field
	f.Fuzz(func(t *testing.T, patients int, rows string) {
		// Bound the row width so the fuzzer explores bytes, not allocations.
		if patients < 0 {
			patients = -patients
		}
		patients %= 512

		roundTrip(t, rows)
		text := "0\t" + strings.Repeat("0 ", patients) + "\n" + rows
		m, err := roundTrip(t, text)
		// The scan line by line: the ids it packs, and its first refused row;
		// as a whole, as the analysis runs it, the scan must say the same.
		var ids []int32
		bad, badErr := 0, error(nil)
		for n, line := range strings.Split(text, "\n") {
			if badErr = ParseGenoText([]byte(line), patients, nil, func(b GenoBlock) bool { ids = append(ids, b.SNPs...); return true }); badErr != nil {
				bad = n + 1
				break
			}
		}
		if scanErr := ParseGenoText([]byte(text), patients, nil, func(GenoBlock) bool { return true }); fmt.Sprint(scanErr) != fmt.Sprint(badErr) {
			t.Fatalf("%q at %d patients: the scan says %v, line by line %v", text, patients, scanErr, badErr)
		}
		if badErr != nil {
			if err == nil {
				t.Fatalf("%q at %d patients: ReadGenotypes reads it, the scan refuses line %d: %v", text, patients, bad, badErr)
			}
			rest, named := strings.CutPrefix(badErr.Error(), "data: SNP ")
			if _, words, field := strings.Cut(rest, ": "); named && field && unique(ids) {
				if want := fmt.Sprintf("data: genotype line %d: %s", bad, words); err.Error() != want {
					t.Fatalf("%q at %d patients: %v, want %q", text, patients, err, want)
				}
			}
			return
		}
		dense := unique(ids) && slices.Max(ids) == int32(len(ids)-1)
		switch {
		case dense && err != nil:
			t.Fatalf("%q at %d patients: the scan packs ids 0..%d, ReadGenotypes says %v", text, patients, len(ids)-1, err)
		case !dense && err == nil:
			t.Fatalf("%q at %d patients: ReadGenotypes reads ids %v", text, patients, ids)
		case dense && (m.SNPs() != len(ids) || m.Patients != patients):
			t.Fatalf("%q: %d × %d, want %d × %d", text, m.SNPs(), m.Patients, len(ids), patients)
		}
	})
}

// unique reports whether no id repeats.
func unique(ids []int32) bool {
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// roundTrip reads text as a genotype file and, if it is accepted, checks
// that the matrix is valid and that its written text reads back to it.
func roundTrip(t *testing.T, text string) (*GenotypeMatrix, error) {
	m, err := ReadGenotypes(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("accepted %q fails Validate: %v", text, err)
	}
	var buf bytes.Buffer
	if err := WriteGenotypes(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGenotypes(&buf)
	if err != nil {
		t.Fatalf("re-reading written genotypes %q (from %q): %v", buf.String(), text, err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip of %q: %v, then %v", text, m, back)
	}
	return m, nil
}

func FuzzReadWeights(f *testing.F) {
	f.Add("0\t1\n1\t0.5\n2\t2.25\n")
	f.Add("1\t3e-17\n0\t-0\n")
	f.Add("0\t1e308\n1\t1e309\n")
	f.Add("0\tNaN\n")
	f.Add("0\t+Inf\n")
	f.Add("0\t1\n0\t2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		w, err := ReadWeights(strings.NewReader(in))
		if err != nil {
			return
		}
		for j, v := range w {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("SNP %d weight parsed to %v from %q", j, v, in)
			}
		}
		var buf bytes.Buffer
		if err := WriteWeights(&buf, w); err != nil {
			t.Fatal(err)
		}
		back, err := ReadWeights(&buf)
		if err != nil {
			t.Fatalf("re-reading written weights %q: %v", buf.String(), err)
		}
		if len(back) != len(w) {
			t.Fatalf("round trip: %d weights, want %d", len(back), len(w))
		}
		for j := range w {
			if math.Float64bits(back[j]) != math.Float64bits(w[j]) {
				t.Fatalf("round trip changed SNP %d's weight: %v -> %v (input %q)", j, w[j], back[j], in)
			}
		}
	})
}

func FuzzReadPhenotype(f *testing.F) {
	f.Add("0\t12.5\t1\n1\t3\t0\n")
	f.Add("1\t-0\t0\n0\t1e-320\t1\n")
	f.Add("0\t1e308\t1\n1\t1e309\t0\n")
	f.Add("0\tNaN\t1\n")
	f.Add("0\t-Inf\t0\n")
	f.Add("0\t1\t2\n")
	f.Add("0\t1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadPhenotype(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted phenotype fails Validate: %v (input %q)", err, in)
		}
		for i, y := range p.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				t.Fatalf("patient %d outcome parsed to %v from %q", i, y, in)
			}
		}
		var buf bytes.Buffer
		if err := WritePhenotype(&buf, p); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPhenotype(&buf)
		if err != nil {
			t.Fatalf("re-reading written phenotype %q: %v", buf.String(), err)
		}
		if back.Patients() != p.Patients() {
			t.Fatalf("round trip: %d patients, want %d", back.Patients(), p.Patients())
		}
		for i := range p.Y {
			if math.Float64bits(back.Y[i]) != math.Float64bits(p.Y[i]) || back.Event[i] != p.Event[i] {
				t.Fatalf("round trip changed patient %d: (%v, %d) -> (%v, %d) (input %q)",
					i, p.Y[i], p.Event[i], back.Y[i], back.Event[i], in)
			}
		}
	})
}

func FuzzReadSNPSets(f *testing.F) {
	f.Add("set0\t0,1,2\nset1\t3\n")
	f.Add("a b\t 4 , 2,,\r\n\n\tx\n")
	f.Add("\t7\n")
	f.Add("s\t+5,-0\n")
	f.Add("s\t-1\n")
	f.Add("s\t\n")
	f.Add("s 1,2\n")
	f.Add("s\t99999999999999999999\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		sets, err := ReadSNPSets(strings.NewReader(in))
		if err != nil {
			return
		}
		for k, set := range sets {
			if len(set.SNPs) == 0 {
				t.Fatalf("set %d (%q) accepted empty from %q", k, set.Name, in)
			}
			for _, j := range set.SNPs {
				if j < 0 {
					t.Fatalf("set %d (%q) holds SNP %d, parsed from %q", k, set.Name, j, in)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteSNPSets(&buf, sets); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSNPSets(&buf)
		if err != nil {
			t.Fatalf("re-reading written sets %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(back, sets) {
			t.Fatalf("round trip of %q: %+v, then %+v", in, sets, back)
		}
	})
}

func FuzzReadCovariates(f *testing.F) {
	f.Add("0\t61 1 0.5\n1\t47 0 -2\n")
	f.Add("1\t-0 1e-320\n0\t1e308 0x1p-3\n")
	f.Add("0\t\n1\t\n")
	f.Add("0\t1e309\n")
	f.Add("0\tNaN\n")
	f.Add("0\t1 2\n1\t3\n")
	f.Add("0\t1\n0\t2\n")
	f.Add("0\t1\n2\t2\n")
	f.Add("9223372036854775807\t1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadCovariates(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted covariates fail Validate: %v (input %q)", err, in)
		}
		var buf bytes.Buffer
		if err := WriteCovariates(&buf, c); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCovariates(&buf)
		if err != nil {
			t.Fatalf("re-reading written covariates %q: %v", buf.String(), err)
		}
		if back.Patients() != c.Patients() || back.Width() != c.Width() {
			t.Fatalf("round trip of %q: %d × %d, then %d × %d", in, c.Patients(), c.Width(), back.Patients(), back.Width())
		}
		for i, row := range c.Rows {
			for j, v := range row {
				if math.Float64bits(back.Rows[i][j]) != math.Float64bits(v) {
					t.Fatalf("round trip changed covariate (%d,%d): %v -> %v (input %q)", i, j, v, back.Rows[i][j], in)
				}
			}
		}
	})
}
