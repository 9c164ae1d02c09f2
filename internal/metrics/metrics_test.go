package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X", "iterations", "runtime")
	tab.AddRowf(0, 509.4)
	tab.AddRowf(10000, 7036.6)
	out := tab.String()
	if !strings.Contains(out, "Table X") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "iterations") || !strings.Contains(out, "runtime") {
		t.Fatal("header missing")
	}
	if !strings.Contains(out, "509.4") || !strings.Contains(out, "7037") {
		t.Fatalf("values missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
}

func TestTableRejectsRaggedRow(t *testing.T) {
	tab := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("ragged row accepted")
		}
	}()
	tab.AddRow("only-one")
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.1234: "0.123",
		9.87:   "9.870",
		42.21:  "42.2",
		1234.5: "1234",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatSeconds(math.NaN()); got != "N/A" {
		t.Errorf("NaN -> %q", got)
	}
}

func TestFormatPercent(t *testing.T) {
	cases := map[float64]string{
		0:      "0%",
		0.0005: "0.050%",
		0.042:  "4.20%",
		0.125:  "12.5%",
		1.5:    "150.0%",
	}
	for in, want := range cases {
		if got := FormatPercent(in); got != want {
			t.Errorf("FormatPercent(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatPercent(math.NaN()); got != "N/A" {
		t.Errorf("NaN -> %q", got)
	}
}
