// Fuzzing the phenotype-matrix reader, ReadPhenoMatrix, on one arbitrary row
// behind a row that fixes the width at patients values: it must never panic,
// must accept the row exactly when strings.Fields splits it into that many
// finite floats (and name line 2 when it does not), and whatever it accepts
// must survive a WritePhenoMatrix/ReadPhenoMatrix round trip bit for bit
// (shortest-round-trip float formatting makes that exact). Seed corpus under
// testdata/fuzz/FuzzPhenoMatrixRoundTrip; `make fuzz-smoke` gives the target
// a 10-second budget.

package data

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func FuzzPhenoMatrixRoundTrip(f *testing.F) {
	f.Add(3, "0.5 -1.25 3e-17")
	f.Add(2, "1 2")
	f.Add(2, "0.30000000000000004 5e-324") // 17 significant digits; the smallest subnormal
	f.Add(2, " -0\t1e308 ")
	f.Add(2, "1\v2\u00a0")
	f.Add(0, "")
	f.Add(1, "NaN")
	f.Add(1, "+Inf")
	f.Add(2, "1 2 3") // surplus field
	f.Add(2, "1")     // short row
	f.Add(2, "1\n2")  // a line break inside the row
	f.Fuzz(func(t *testing.T, patients int, fields string) {
		// Bound the row width so the fuzzer explores values, not allocations.
		if patients < 0 {
			patients = -patients
		}
		patients %= 512

		text := "0\t" + strings.Repeat("0 ", patients) + "\n1\t" + fields + "\n"
		m, err := ReadPhenoMatrix(strings.NewReader(text))
		if strings.ContainsRune(fields, '\n') {
			return // more lines than two: no panic is the whole contract
		}
		// The reader's contract: the fields strings.Fields finds, each a
		// finite float, as many as the first row holds.
		want := []float64{}
		ok := true
		for _, field := range strings.Fields(fields) {
			v, perr := strconv.ParseFloat(field, 64)
			ok = ok && perr == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
			want = append(want, v)
		}
		ok = ok && len(want) == patients
		if !ok {
			if err == nil || !strings.Contains(err.Error(), "line 2:") {
				t.Fatalf("ReadPhenoMatrix accepted row %q at %d patients (err %v), want an error naming line 2", fields, patients, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadPhenoMatrix rejected row %q at %d patients: %v", fields, patients, err)
		}
		if m.Rows() != 2 || m.Patients != patients {
			t.Fatalf("accepted %d rows of %d patients, want 2 of %d", m.Rows(), m.Patients, patients)
		}
		for i, v := range m.Row(1) {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("patient %d parsed to %v from %q, want %v", i, v, fields, want[i])
			}
		}
		// Round trip: the production writer, then the reader again.
		var buf bytes.Buffer
		if err := WritePhenoMatrix(&buf, m); err != nil {
			t.Fatal(err)
		}
		m2, err := ReadPhenoMatrix(&buf)
		if err != nil {
			t.Fatalf("re-reading written matrix %q: %v", buf.String(), err)
		}
		for i := range m.Values {
			if math.Float64bits(m.Values[i]) != math.Float64bits(m2.Values[i]) {
				t.Fatalf("round trip changed value %d: %v -> %v (input %q)",
					i, m.Values[i], m2.Values[i], fields)
			}
		}
		if m2.Rows() != 2 || m.IDs[1] != m2.IDs[1] {
			t.Fatalf("round trip changed ids: %v -> %v", m.IDs, m2.IDs)
		}
	})
}
