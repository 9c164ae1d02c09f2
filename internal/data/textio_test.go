package data

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"sparkscore/internal/rng"
)

// writeGenotypesOracle is the encoder WriteGenotypes replaced: every
// genotype through strconv.Itoa into a strings.Builder, then copied out.
func writeGenotypesOracle(w io.Writer, m *GenotypeMatrix) error {
	bw := bufio.NewWriter(w)
	var sb strings.Builder
	for j, row := range m.Rows {
		sb.Reset()
		sb.WriteString(strconv.Itoa(j))
		sb.WriteByte('\t')
		for i, g := range row {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(int(g)))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteGenotypesMatchesOracle pins WriteGenotypes' bytes to the
// Itoa-per-genotype encoder's, on values outside {0,1,2} too, and the size it
// grows its destination to to the bytes it writes when every value is in
// {0,1,2}.
func TestWriteGenotypesMatchesOracle(t *testing.T) {
	m := NewGenotypeMatrix(5, 7)
	r := rng.New(3)
	for j := range m.Rows {
		for i := range m.Rows[j] {
			m.Rows[j][i] = Genotype(r.Intn(3))
		}
	}
	m.Rows[1][0], m.Rows[2][6], m.Rows[3][3] = MissingGenotype, 7, -128
	noPatients := NewGenotypeMatrix(12, 0) // an id and a tab per row
	for _, tc := range []*GenotypeMatrix{m, sampleMatrix(), noPatients, NewGenotypeMatrix(120, 3), {}} {
		var got, want bytes.Buffer
		if err := WriteGenotypes(&got, tc); err != nil {
			t.Fatal(err)
		}
		if err := writeGenotypesOracle(&want, tc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteGenotypes wrote %q, the oracle %q", got.Bytes(), want.Bytes())
		}
		if tc != m && got.Len() != genotypeTextBytes(tc) {
			t.Fatalf("%d rows of {0,1,2}: wrote %d bytes, sized the buffer for %d", len(tc.Rows), got.Len(), genotypeTextBytes(tc))
		}
	}
}

func TestGenotypeRoundTrip(t *testing.T) {
	m := sampleMatrix()
	var buf bytes.Buffer
	if err := WriteGenotypes(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGenotypes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Patients != m.Patients || got.SNPs() != m.SNPs() {
		t.Fatalf("shape changed: (%d,%d) -> (%d,%d)", m.SNPs(), m.Patients, got.SNPs(), got.Patients)
	}
	for j := range m.Rows {
		for i := range m.Rows[j] {
			if got.Rows[j][i] != m.Rows[j][i] {
				t.Fatalf("G[%d][%d] = %d, want %d", j, i, got.Rows[j][i], m.Rows[j][i])
			}
		}
	}
}

func TestGenotypeRoundTripProperty(t *testing.T) {
	r := rng.New(99)
	f := func(seed uint64) bool {
		rr := r.Split(seed)
		snps := rr.Intn(8) + 1
		patients := rr.Intn(8) + 1
		m := NewGenotypeMatrix(snps, patients)
		for j := 0; j < snps; j++ {
			for i := 0; i < patients; i++ {
				m.Rows[j][i] = Genotype(rr.Intn(3))
			}
		}
		var buf bytes.Buffer
		if err := WriteGenotypes(&buf, m); err != nil {
			return false
		}
		got, err := ReadGenotypes(&buf)
		if err != nil {
			return false
		}
		for j := 0; j < snps; j++ {
			for i := 0; i < patients; i++ {
				if got.Rows[j][i] != m.Rows[j][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadGenotypesOutOfOrderLines(t *testing.T) {
	in := "1\t2 0 1\n0\t0 1 2\n"
	m, err := ReadGenotypes(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows[0][0] != 0 || m.Rows[1][0] != 2 {
		t.Fatalf("rows misplaced: %v", m.Rows)
	}
}

func TestReadGenotypesErrors(t *testing.T) {
	cases := map[string]string{
		"missing tab":     "0 1 2\n",
		"bad genotype":    "0\t0 5 1\n",
		"negative snp":    "-1\t0 1\n",
		"ragged":          "0\t0 1\n1\t0 1 2\n",
		"duplicate":       "0\t0 1\n0\t1 2\n",
		"gap in snp ids":  "0\t0 1\n2\t1 2\n",
		"empty":           "",
		"non-numeric snp": "x\t0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadGenotypes(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestPhenotypeRoundTrip(t *testing.T) {
	p := &Phenotype{Y: []float64{1.5, 0.25, 12}, Event: []uint8{1, 0, 1}}
	var buf bytes.Buffer
	if err := WritePhenotype(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPhenotype(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Y {
		if got.Y[i] != p.Y[i] || got.Event[i] != p.Event[i] {
			t.Fatalf("patient %d = (%v,%d), want (%v,%d)", i, got.Y[i], got.Event[i], p.Y[i], p.Event[i])
		}
	}
}

func TestReadPhenotypeErrors(t *testing.T) {
	cases := map[string]string{
		"two fields":    "0\t1.5\n",
		"bad event":     "0\t1.5\t2\n",
		"bad outcome":   "0\tx\t1\n",
		"duplicate":     "0\t1\t1\n0\t2\t0\n",
		"gap":           "0\t1\t1\n2\t2\t0\n",
		"empty":         "",
		"negative id":   "-1\t1\t1\n",
		"non-numeric":   "a\t1\t1\n",
		"missing event": "0\t1\t\n",
	}
	for name, in := range cases {
		if _, err := ReadPhenotype(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	w := Weights{1, 0.5, 2.25}
	var buf bytes.Buffer
	if err := WriteWeights(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for j := range w {
		if got[j] != w[j] {
			t.Fatalf("weight %d = %v, want %v", j, got[j], w[j])
		}
	}
}

func TestReadWeightsErrors(t *testing.T) {
	cases := map[string]string{
		"missing tab": "0 1.5\n",
		"negative":    "0\t-1\n",
		"duplicate":   "0\t1\n0\t2\n",
		"gap":         "0\t1\n2\t1\n",
		"empty":       "",
	}
	for name, in := range cases {
		if _, err := ReadWeights(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestReadersRefuseNonFiniteValues: strconv.ParseFloat accepts "NaN", "Inf"
// and their spellings, and a NaN weight used to reach the analysis — Monte
// Carlo reported its set at the smallest p it can give — as a NaN survival
// time ran to finite, meaningless p-values. Each reader refuses them, naming
// the line.
func TestReadersRefuseNonFiniteValues(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
		read           func(string) error
	}{
		{"NaN weight", "0\t1\n1\tNaN\n", `data: weight line 2: bad weight "NaN"`, readWeights},
		{"+Inf weight", "0\t+Inf\n", `data: weight line 1: bad weight "+Inf"`, readWeights},
		{"-Inf weight", "0\t1\n1\t2\n2\t-Inf\n", `data: weight line 3: bad weight "-Inf"`, readWeights},
		{"infinity weight", "0\tinfinity\n", `data: weight line 1: bad weight "infinity"`, readWeights},
		{"NaN outcome", "0\t1\t1\n1\tNaN\t1\n", `data: phenotype line 2: bad outcome "NaN"`, readPhenotype},
		{"inf outcome", "0\tinf\t0\n", `data: phenotype line 1: bad outcome "inf"`, readPhenotype},
		{"-Inf outcome", "0\t2\t1\n\n1\t-Inf\t1\n", `data: phenotype line 3: bad outcome "-Inf"`, readPhenotype},
		{"+Inf covariate", "0\t+Inf 1\n", `data: covariate line 1: bad value "+Inf"`, readCovariates},
		{"-Inf covariate", "0\t1\n1\t-Inf\n", `data: covariate line 2: bad value "-Inf"`, readCovariates},
		{"NaN covariate", "0\t1 nan\n", `data: covariate line 1: bad value "nan"`, readCovariates},
	} {
		if err := tc.read(tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

func readWeights(s string) error {
	_, err := ReadWeights(strings.NewReader(s))
	return err
}

func readPhenotype(s string) error {
	_, err := ReadPhenotype(strings.NewReader(s))
	return err
}

func readCovariates(s string) error {
	_, err := ReadCovariates(strings.NewReader(s))
	return err
}

func TestSNPSetsRoundTrip(t *testing.T) {
	s := SNPSets{{Name: "gene1", SNPs: []int{0, 5, 2}}, {Name: "gene2", SNPs: []int{1}}}
	var buf bytes.Buffer
	if err := WriteSNPSets(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSNPSets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "gene1" || got[1].Name != "gene2" {
		t.Fatalf("sets = %+v", got)
	}
	if len(got[0].SNPs) != 3 || got[0].SNPs[1] != 5 {
		t.Fatalf("gene1 SNPs = %v", got[0].SNPs)
	}
}

func TestReadSNPSetsErrors(t *testing.T) {
	cases := map[string]string{
		"missing tab": "gene1 0,1\n",
		"bad snp":     "gene1\t0,x\n",
		"empty set":   "gene1\t\n",
		"empty file":  "",
	}
	for name, in := range cases {
		if _, err := ReadSNPSets(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestParseGenotypeFields(t *testing.T) {
	gs, err := ParseGenotypeFields([]string{"0", "1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if gs[0] != 0 || gs[1] != 1 || gs[2] != 2 {
		t.Fatalf("parsed %v", gs)
	}
	if _, err := ParseGenotypeFields([]string{"3"}); err == nil {
		t.Fatal("genotype 3 accepted")
	}
}

func TestCovariatesRoundTrip(t *testing.T) {
	c := &Covariates{Rows: [][]float64{{1.5, 0}, {-2.25, 1}, {0.125, 0}}}
	var buf bytes.Buffer
	if err := WriteCovariates(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCovariates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Rows {
		for j := range c.Rows[i] {
			if got.Rows[i][j] != c.Rows[i][j] {
				t.Fatalf("covariate (%d,%d) = %v, want %v", i, j, got.Rows[i][j], c.Rows[i][j])
			}
		}
	}
}

func TestReadCovariatesErrors(t *testing.T) {
	cases := map[string]string{
		"missing tab": "0 1.5\n",
		"bad value":   "0\tx\n",
		"ragged":      "0\t1 2\n1\t3\n",
		"duplicate":   "0\t1\n0\t2\n",
		"gap":         "0\t1\n2\t2\n",
		"empty":       "",
		"negative id": "-1\t1\n",
	}
	for name, in := range cases {
		if _, err := ReadCovariates(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}
