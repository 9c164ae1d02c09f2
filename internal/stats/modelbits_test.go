package stats

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"sparkscore/internal/data"
)

// The model-bits fixture: 13 patients, a survival outcome with tied times and
// censored patients, a quantitative and a 0/1 outcome, two covariates, and
// four genotype rows — one with a missing call, one monomorphic.
var (
	bitsTimes  = []float64{5, 3, 8, 3, 1, 9, 5, 2, 7, 5, 4, 6, 2}
	bitsEvents = []uint8{1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1}
	bitsQuant  = []float64{1.3, -0.4, 2.7, 0.8, -1.1, 3.2, 0.1, 1.9, -0.6, 2.2, 0.5, 1.4, -0.9}
	bitsBinary = []float64{1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0}
	bitsCovs   = [][]float64{
		{0.5, 1}, {-1.2, 0}, {0.3, 1}, {1.8, 0}, {-0.7, 1}, {0.9, 0}, {-0.1, 0},
		{1.1, 1}, {-1.6, 1}, {0.2, 0}, {-0.4, 1}, {1.4, 0}, {-0.9, 0},
	}
	bitsRows = [][]data.Genotype{
		{0, 1, 2, 1, 0, 0, 1, 2, 0, 1, 0, 0, 1},
		{1, 0, data.MissingGenotype, 2, 1, 0, 0, 1, 2, 0, 1, 1, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{2, 2, 1, 0, 1, 2, 2, 0, 1, 1, 2, 0, 2},
	}
)

// bitsPhenotype is the fixture's outcome for a score family.
func bitsPhenotype(family string) *data.Phenotype {
	ph := data.NewPhenotype(len(bitsTimes))
	switch family {
	case "cox":
		copy(ph.Y, bitsTimes)
		copy(ph.Event, bitsEvents)
	case "gaussian":
		copy(ph.Y, bitsQuant)
	case "binomial":
		copy(ph.Y, bitsBinary)
	}
	return ph
}

// renderModelBits writes every quantity a model exposes on the fixture as
// float64 bit patterns in hex: the score residuals, the residual panel of a
// 13 × 3 weight panel, and each genotype row's contributions and variance.
// Genotypes reach the model as the packed kernels decode them (missing
// scores as dosage zero).
func renderModelBits(t *testing.T, label string, m Model) string {
	t.Helper()
	var b strings.Builder
	line := func(what string, vs ...float64) {
		fmt.Fprintf(&b, "%s %s", label, what)
		for _, v := range vs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	r, ok := m.(interface {
		ScoreResiduals() []float64
		PanelResiduals(z []float64, width int) []float64
	})
	if !ok {
		t.Fatalf("%s: model has no residual form", label)
	}
	n := m.Patients()
	line("residuals", r.ScoreResiduals()...)
	z := make([]float64, n*3)
	for i := range z {
		z[i] = float64((i*7)%11)/4 - 1.2
	}
	line("panel3", r.PanelResiduals(z, 3)...)
	blk := data.NewGenoBlock(n, len(bitsRows))
	for j, row := range bitsRows {
		if err := blk.AppendRow(j, row); err != nil {
			t.Fatal(err)
		}
	}
	g := make([]data.Genotype, n)
	u := make([]float64, n)
	for j := range bitsRows {
		DecodeDosageGenotypes(blk.Row(j), g)
		m.Contributions(g, u)
		line(fmt.Sprintf("contrib%d", j), u...)
		line(fmt.Sprintf("variance%d", j), m.Variance(g))
	}
	return b.String()
}

// expProbe renders math.Exp's bits at a few arguments. The logistic and Cox
// covariate fits go through math.Exp, whose last bits depend on the
// architecture (assembly on amd64, with or without FMA; Go on 386), so the
// pins are per GOARCH and hold only on a host whose probe matches theirs.
func expProbe() string {
	var b strings.Builder
	b.WriteString("exp")
	for _, x := range []float64{-3.7, -1.25, -0.42, 0.013, 0.37, 0.9, 1.6, 2.5} {
		fmt.Fprintf(&b, " %016x", math.Float64bits(math.Exp(x)))
	}
	b.WriteByte('\n')
	return b.String()
}

// modelBits renders the probe and then every model on the fixture — each
// family plain and adjusted for two covariates — and checks that NewModel is
// NewAdjustedModel without covariates, bit for bit.
func modelBits(t *testing.T) string {
	t.Helper()
	var got strings.Builder
	got.WriteString(expProbe())
	for _, family := range []string{"cox", "gaussian", "binomial"} {
		ph := bitsPhenotype(family)
		plain, err := NewModel(family, ph)
		if err != nil {
			t.Fatal(err)
		}
		viaNil, err := NewAdjustedModel(family, ph, nil)
		if err != nil {
			t.Fatal(err)
		}
		adjusted, err := NewAdjustedModel(family, ph, bitsCovs)
		if err != nil {
			t.Fatal(err)
		}
		p := renderModelBits(t, family+"/plain", plain)
		if v := renderModelBits(t, family+"/plain", viaNil); v != p {
			t.Errorf("%s: NewAdjustedModel(nil covariates) differs from NewModel", family)
		}
		got.WriteString(p)
		got.WriteString(renderModelBits(t, family+"/adjusted", adjusted))
	}
	return got.String()
}

// TestModelBitsPinned pins the float64 bits of modelBits against
// testdata/model_bits_<GOARCH>.txt, line by line.
func TestModelBitsPinned(t *testing.T) {
	got := modelBits(t)
	want, err := os.ReadFile("testdata/model_bits_" + runtime.GOARCH + ".txt")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skipf("no model bits pinned for %s", runtime.GOARCH)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if gotLines[0] != wantLines[0] {
		t.Skipf("this host's math.Exp differs from the pinned one:\n got %s\nwant %s", gotLines[0], wantLines[0])
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines of model bits, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("model bits line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
