package data

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func buildPhenoMatrix(t *testing.T, patients int, rows [][]float64) *PhenoMatrix {
	t.Helper()
	m := NewPhenoMatrix(patients, len(rows))
	for id, vals := range rows {
		if err := m.AppendRow(id, vals); err != nil {
			t.Fatalf("AppendRow(%d): %v", id, err)
		}
	}
	return &m
}

func TestPhenoMatrixRoundTrip(t *testing.T) {
	m := buildPhenoMatrix(t, 3, [][]float64{
		{0.5, -1.25, 3e-17},
		{math.Pi, -0.0, 12345.678901234567},
		{1, 2, 3},
	})
	var buf bytes.Buffer
	if err := WritePhenoMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPhenoMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Patients != m.Patients || got.Rows() != m.Rows() {
		t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
			m.Rows(), m.Patients, got.Rows(), got.Patients)
	}
	for i := range m.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(m.Values[i]) {
			t.Fatalf("value %d changed: %v -> %v", i, m.Values[i], got.Values[i])
		}
	}
}

func TestPhenoMatrixReadAnyOrder(t *testing.T) {
	in := "2\t5 6\n0\t1 2\n1\t3 4\n"
	m, err := ReadPhenoMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for i, v := range want {
		if m.Values[i] != v {
			t.Fatalf("Values[%d] = %v, want %v", i, m.Values[i], v)
		}
	}
}

func TestPhenoMatrixReadErrors(t *testing.T) {
	cases := map[string]string{
		"missing tab":  "0 1 2\n",
		"bad id":       "x\t1 2\n",
		"bad value":    "0\t1 nope\n",
		"nan":          "0\tNaN 2\n",
		"inf":          "0\t+Inf 2\n",
		"ragged":       "0\t1 2\n1\t3\n",
		"duplicate":    "0\t1 2\n0\t3 4\n",
		"sparse ids":   "0\t1 2\n2\t3 4\n",
		"empty matrix": "\n",
	}
	for name, in := range cases {
		if _, err := ReadPhenoMatrix(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadPhenoMatrix accepted %q", name, in)
		}
	}
}

func TestPhenoMatrixAppendRejects(t *testing.T) {
	m := NewPhenoMatrix(2, 1)
	if err := m.AppendRow(0, []float64{1}); err == nil {
		t.Fatal("AppendRow accepted a short row")
	}
	if err := m.AppendRow(0, []float64{1, math.NaN()}); err == nil {
		t.Fatal("AppendRow accepted NaN")
	}
	if m.Rows() != 0 || len(m.Values) != 0 {
		t.Fatalf("rejected rows left state: %d rows, %d values", m.Rows(), len(m.Values))
	}
}

func TestPhenoMatrixPhenotypeView(t *testing.T) {
	m := buildPhenoMatrix(t, 2, [][]float64{{1, 2}, {3, 4}})
	ph := m.Phenotype(1)
	if ph.Patients() != 2 || ph.Y[0] != 3 || ph.Y[1] != 4 {
		t.Fatalf("Phenotype(1) = %+v", ph)
	}
	if len(ph.Event) != 2 || ph.Event[0] != 0 {
		t.Fatalf("Phenotype(1).Event = %v, want all-zero of length 2", ph.Event)
	}
}

func TestPhenoMatrixApproxBytes(t *testing.T) {
	m := buildPhenoMatrix(t, 4, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	if got, want := m.ApproxBytes(), int64(8*8+4*2+96); got != want {
		t.Fatalf("ApproxBytes = %d, want %d", got, want)
	}
}
