package data

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
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
// Itoa-per-genotype encoder's, and the size it grows its destination to to
// the bytes it writes. A value outside {0,1,2} is Validate's error, naming the
// first such SNP and patient, with nothing written.
func TestWriteGenotypesMatchesOracle(t *testing.T) {
	for _, bad := range []struct {
		j, i int
		g    Genotype
	}{{1, 0, MissingGenotype}, {2, 6, 7}, {3, 3, -128}} {
		m := randomMatrix(5, 7, 3)
		m.Rows[bad.j][bad.i] = bad.g
		m.Rows[4][2] = 3 // a later one: the error names the first
		var got bytes.Buffer
		err := WriteGenotypes(&got, m)
		want := fmt.Sprintf("data: SNP %d patient %d has genotype %d outside {0,1,2}", bad.j, bad.i, bad.g)
		if err == nil || err.Error() != want || got.Len() != 0 {
			t.Fatalf("genotype %d at SNP %d, patient %d: error %v and %d bytes written, want %q and none", bad.g, bad.j, bad.i, err, got.Len(), want)
		}
	}
	noPatients := NewGenotypeMatrix(12, 0) // an id and a tab per row
	for _, tc := range []*GenotypeMatrix{randomMatrix(5, 7, 3), sampleMatrix(), noPatients, NewGenotypeMatrix(120, 3), {}} {
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
		if got.Len() != genotypeTextBytes(tc) {
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

// randomMatrix is a snps × patients matrix of genotypes in {0,1,2}.
func randomMatrix(snps, patients int, seed uint64) *GenotypeMatrix {
	m := NewGenotypeMatrix(snps, patients)
	r := rng.New(seed)
	for _, row := range m.Rows {
		for i := range row {
			row[i] = Genotype(r.Intn(3))
		}
	}
	return m
}

// plainWriter hides every method of its buffer but Write.
type plainWriter struct{ buf bytes.Buffer }

func (w *plainWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// failingWriter accepts budget bytes, fails the write that would pass them
// (keeping nothing of it), and reports any write after the failure.
type failingWriter struct {
	t      *testing.T
	budget int
	got    bytes.Buffer
	failed bool
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.t.Errorf("Write of %d bytes after the writer failed", len(p))
	}
	if w.got.Len()+len(p) > w.budget {
		w.failed = true
		return 0, errWriterFull
	}
	return w.got.Write(p)
}

// TestWriteGenotypesParallelMatchesOracle: the batched, row-parallel encoder
// writes the serial oracle's bytes under GOMAXPROCS 1, 2 and 7 — into a
// bytes.Buffer (encoded in place) and into a writer with nothing but Write —
// for no rows, one row, fewer rows than workers, no patients and a matrix of
// several batches. A value outside {0,1,2} in the first or in a later batch,
// or in any column of a four-genotype group, is Validate's error, and what
// was written before it is the oracle's text of the batches before the
// value's. A writer that fails part-way gets the error back and no write
// after it, and what it accepted is a prefix of the oracle's text.
func TestWriteGenotypesParallelMatchesOracle(t *testing.T) {
	batches := randomMatrix(encodeBatchBytes/2000+100, 1001, 1) // two batches
	late := randomMatrix(len(batches.Rows), 1001, 2)
	late.Rows[len(late.Rows)-3][500] = MissingGenotype
	early := randomMatrix(6, 9, 3)
	early.Rows[0][8], early.Rows[4][0] = MissingGenotype, 100
	cases := map[string]*GenotypeMatrix{
		"no rows":          {},
		"one row":          randomMatrix(1, 13, 4),
		"fewer than procs": randomMatrix(3, 5, 5),
		"no patients":      NewGenotypeMatrix(11, 0),
		"one patient":      randomMatrix(23, 1, 6),
		"outside first":    early,
		"outside later":    late,
		"several batches":  batches,
	}
	for col := range 9 { // each of a four-genotype group's lanes, and the tail
		m := randomMatrix(4, 9, 8)
		m.Rows[2][col] = MissingGenotype
		cases[fmt.Sprintf("missing in column %d", col)] = m
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, m := range cases {
		var want bytes.Buffer
		if err := writeGenotypesOracle(&want, m); err != nil {
			t.Fatal(err)
		}
		text, bad := want.Bytes(), m.Validate()
		if bad != nil { // the oracle's lines before the bad value's batch
			j := slices.IndexFunc(m.Rows, func(row []Genotype) bool {
				return slices.ContainsFunc(row, func(g Genotype) bool { return g < 0 || g > 2 })
			})
			text = text[:lineStart(text, batchStart(m, j))]
		}
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			var buf bytes.Buffer
			var plain plainWriter
			for _, w := range []struct {
				io.Writer
				got *bytes.Buffer
			}{{&buf, &buf}, {&plain, &plain.buf}} {
				if err := WriteGenotypes(w.Writer, m); fmt.Sprint(err) != fmt.Sprint(bad) {
					t.Fatalf("%s, GOMAXPROCS %d, %T: error %v, want %v", name, procs, w.Writer, err, bad)
				}
				if !bytes.Equal(w.got.Bytes(), text) {
					t.Fatalf("%s, GOMAXPROCS %d, %T: %d bytes differ from the oracle's %d",
						name, procs, w.Writer, w.got.Len(), len(text))
				}
			}
			for _, budget := range []int{0, want.Len() / 2, want.Len() - 1} {
				if want.Len() == 0 {
					break
				}
				fw := &failingWriter{t: t, budget: budget}
				if err := WriteGenotypes(fw, m); !errors.Is(err, errWriterFull) && (bad == nil || fmt.Sprint(err) != bad.Error()) {
					t.Fatalf("%s, GOMAXPROCS %d, failing after %d bytes: error %v, want the writer's or %v", name, procs, budget, err, bad)
				}
				if !bytes.HasPrefix(want.Bytes(), fw.got.Bytes()) {
					t.Fatalf("%s, GOMAXPROCS %d: the %d bytes accepted before the failure are not the oracle's", name, procs, fw.got.Len())
				}
			}
		}
	}
}

// batchStart is the first row of the batch WriteGenotypes encodes row j in.
func batchStart(m *GenotypeMatrix, j int) int {
	lo := 0
	for {
		hi, n := lo, 0
		for ; hi < len(m.Rows) && n < encodeBatchBytes; hi++ {
			n += rowTextBytes(hi, len(m.Rows[hi]))
		}
		if j < hi {
			return lo
		}
		lo = hi
	}
}

// lineStart is the offset of line j of text.
func lineStart(text []byte, j int) int {
	off := 0
	for ; j > 0; j-- {
		off += bytes.IndexByte(text[off:], '\n') + 1
	}
	return off
}

// TestWriteGenotypesPlainWriterScratchBounded: into a writer that cannot lend
// its free space, WriteGenotypes allocates one batch's scratch, not the
// text's size.
func TestWriteGenotypesPlainWriterScratchBounded(t *testing.T) {
	m := randomMatrix(6*encodeBatchBytes/2000, 1000, 7) // 6 batches of text
	text := genotypeTextBytes(m)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteGenotypes(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > encodeBatchBytes+1<<20 {
		t.Fatalf("%d bytes of text into io.Discard allocated %d bytes, want at most one %d-byte batch and change",
			text, alloc, encodeBatchBytes)
	}
}

// BenchmarkWriteGenotypes encodes perm_scan's 10 000-SNP × 1 000-patient
// matrix, 20 MB of text, into a bytes.Buffer (grown once and encoded into in
// place) and into io.Discard (one batch's scratch), and reports MB/s of text.
func BenchmarkWriteGenotypes(b *testing.B) {
	m := randomMatrix(10000, 1000, 1)
	for _, bc := range []struct {
		name string
		w    func() io.Writer
	}{
		{"buffer", func() io.Writer { return new(bytes.Buffer) }},
		{"discard", func() io.Writer { return io.Discard }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(genotypeTextBytes(m)))
			for b.Loop() {
				if err := WriteGenotypes(bc.w(), m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadGenotypes reads perm_scan's 10 000-SNP × 1 000-patient
// matrix back from its 20 MB of canonical text, as sparkscore -dir does, and
// reports ns per genotype read and allocations per read.
func BenchmarkReadGenotypes(b *testing.B) {
	var text bytes.Buffer
	if err := WriteGenotypes(&text, randomMatrix(10000, 1000, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadGenotypes(bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e7, "ns/genotype")
}

// TestTableRules pins the rules every id-keyed table shares, and the words
// each reader gives them: the table scan is their one implementation. Blank
// lines are skipped but counted; ids are dense 0..N−1 in any order, so an id
// past the row count is a gap, refused before anything is sized by it; the
// first repeated id is reported even when a gap follows it; and a '\r' ends
// no line — it is a byte of the field before it.
func TestTableRules(t *testing.T) {
	read := map[string]func(string) error{
		"genotype":    func(s string) error { _, err := ReadGenotypes(strings.NewReader(s)); return err },
		"phenotype":   readPhenotype,
		"weight":      readWeights,
		"covariate":   readCovariates,
		"phenomatrix": func(s string) error { _, err := ReadPhenoMatrix(strings.NewReader(s)); return err },
	}
	row := map[string]string{"genotype": "0 1", "phenotype": "1.5\t1", "weight": "0.5", "covariate": "0 1", "phenomatrix": "0 1"}
	for _, tc := range []struct {
		table, in, want string // in's "R" stands for a valid row of the table
	}{
		{"genotype", "1\tR\n\n0\tR\n", ""},
		{"weight", "\n\n2\tR\n0\tR\n1\tR\n", ""},
		{"genotype", "", "data: empty genotype file"},
		{"phenotype", "\n\n", "data: empty phenotype file"},
		{"weight", "", "data: empty weight file"},
		{"covariate", "\n", "data: empty covariate file"},
		{"phenomatrix", "", "data: empty phenotype matrix"},
		{"genotype", "0\tR\n\n1 R\n", "data: genotype line 3: missing tab"},
		{"phenotype", "0\tR\n1 R\n", "data: phenotype line 2: want 3 fields, got 2"},
		{"weight", "0 R\n", "data: weight line 1: missing tab"},
		{"covariate", "0\tR\nR\n", "data: covariate line 2: missing tab"},
		{"phenomatrix", "R\n", "data: phenomatrix line 1: missing tab"},
		{"genotype", "-1\tR\n", `data: genotype line 1: bad SNP id "-1"`},
		{"phenotype", "x\tR\n", `data: phenotype line 1: bad patient id "x"`},
		{"weight", "0\tR\n\t1\n", `data: weight line 2: bad SNP id ""`},
		{"covariate", "99999999999999999999\tR\n", `data: covariate line 1: bad patient id "99999999999999999999"`},
		{"phenomatrix", "1.0\tR\n", `data: phenomatrix line 1: bad phenotype id "1.0"`},
		{"genotype", "1\tR\n0\tR\n1\tR\n", "data: duplicate genotype row for SNP 1"},
		{"phenotype", "0\tR\n0\tR\n", "data: duplicate phenotype for patient 0"},
		{"weight", "0\tR\n1\tR\n0\tR\n", "data: duplicate weight for SNP 0"},
		{"covariate", "0\tR\n0\tR\n", "data: duplicate covariates for patient 0"},
		{"phenomatrix", "0\tR\n0\tR\n", "data: duplicate phenotype row for id 0"},
		{"genotype", "0\tR\n2\tR\n", "data: 2 genotype rows but max SNP id is 2"},
		{"phenotype", "1\tR\n", "data: 1 phenotype rows but max patient id is 1"},
		{"weight", "0\tR\n2147483647\tR\n", "data: 2 weights but max SNP id is 2147483647"},
		{"covariate", "0\tR\n5\tR\n", "data: 2 covariate rows but max patient id is 5"},
		{"phenomatrix", "3\tR\n1\tR\n", "data: 2 phenotype rows but max phenotype id is 3"},
		// Two faults, a repeated id and a gap: the repeat, at its line.
		{"genotype", "0\tR\n5\tR\n0\tR\n", "data: duplicate genotype row for SNP 0"},
		{"phenomatrix", "7\tR\n7\tR\n", "data: duplicate phenotype row for id 7"},
		{"genotype", "0\t0 1\r\n", `data: genotype line 1: field 2: bad genotype "1\r"`},
		{"weight", "0\t1\r\n", `data: weight line 1: bad weight "1\r"`},
	} {
		in := strings.ReplaceAll(tc.in, "R", row[tc.table])
		err := read[tc.table](in)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%s table %q: %v, want %q", tc.table, in, err, tc.want)
		}
	}
}
