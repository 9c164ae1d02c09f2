// Text serialisation of the four input files of Algorithm 1. The formats are
// line-oriented and tab-separated so they can be split into HDFS-style blocks
// at line boundaries and parsed independently per partition:
//
//	genotypes: <snp>\t<g_1> <g_2> ... <g_n>
//	phenotype: <patient>\t<Y>\t<Delta>
//	weights:   <snp>\t<weight>
//	snpsets:   <name>\t<snp_1>,<snp_2>,...
package data

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// WriteGenotypes writes m in the genotype text format. It encodes batches of
// rows, a few MB of text each, every batch split into GOMAXPROCS row ranges
// encoded in parallel at their exact offsets, and writes the batches in row
// order, so the bytes are those of a serial encoder. A destination that can
// grow and lend its free space (a bytes.Buffer) is grown once to the text's
// size and encoded into in place, so staging holds one buffer of the text
// rather than a doubling chain of them; any other destination gets one
// batch's scratch, reused. A genotype outside {0,1,2}, which no reader
// accepts, is m.Validate()'s error, naming its SNP and patient, and nothing
// of its batch is written. A write error is returned at once; nothing is
// written after it.
func WriteGenotypes(w io.Writer, m *GenotypeMatrix) error {
	var inPlace interface{ AvailableBuffer() []byte }
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(genotypeTextBytes(m))
		inPlace, _ = w.(interface{ AvailableBuffer() []byte })
	}
	var scratch []byte
	for lo := 0; lo < len(m.Rows); {
		hi, n := lo, 0
		for ; hi < len(m.Rows) && n < encodeBatchBytes; hi++ {
			n += rowTextBytes(hi, len(m.Rows[hi]))
		}
		dst := scratch
		if inPlace != nil {
			dst = inPlace.AvailableBuffer()
		}
		if cap(dst) < n {
			scratch = make([]byte, n)
			dst = scratch
		}
		dst = dst[:n]
		if !encodeRowsParallel(dst, m.Rows[lo:hi], lo) {
			return m.Validate()
		}
		if _, err := w.Write(dst); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// encodeBatchBytes is the text WriteGenotypes encodes between two writes: it
// bounds the scratch a destination that cannot lend its free space costs
// (one row's text, where a row is longer).
const encodeBatchBytes = 4 << 20

// encodeRowsParallel encodes rows, the first of which is SNP first, into dst,
// which is exactly their text's size: GOMAXPROCS contiguous row ranges, each
// on its own goroutine at its offset. It reports false, leaving dst partly
// written, if a genotype is outside {0,1,2}.
func encodeRowsParallel(dst []byte, rows [][]Genotype, first int) bool {
	workers := min(runtime.GOMAXPROCS(0), len(rows))
	ok := make([]bool, workers)
	var wg sync.WaitGroup
	off, j := 0, 0
	for w := range workers {
		lo, hi, start := j, (w+1)*len(rows)/workers, off
		for ; j < hi; j++ {
			off += rowTextBytes(first+j, len(rows[j]))
		}
		part := dst[start:off]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok[w] = encodeRows(part, rows[lo:hi], first+lo)
		}()
	}
	wg.Wait()
	return !slices.Contains(ok, false)
}

// encodeRows encodes rows, the first of which is SNP first, into dst, which is
// exactly their text's size: per genotype its digit and a separator, four
// genotypes to a 64-bit store, and the row's last separator overwritten by
// the newline. It reports whether every genotype was in {0,1,2}; dst is
// garbage if not.
func encodeRows(dst []byte, rows [][]Genotype, first int) bool {
	var seen uint64 // |= g+1: below 4 while every g is 0, 1 or 2
	k := 0
	for r, row := range rows {
		k += len(strconv.AppendInt(dst[k:k], int64(first+r), 10))
		dst[k] = '\t'
		k++
		line := dst[k : k+2*len(row)]
		k += max(2*len(row), 1)
		for ; len(row) >= 4; row, line = row[4:], line[8:] {
			g0, g1, g2, g3 := uint64(uint8(row[0])), uint64(uint8(row[1])), uint64(uint8(row[2])), uint64(uint8(row[3]))
			seen |= (g0 + 1) | (g1 + 1) | (g2 + 1) | (g3 + 1)
			binary.LittleEndian.PutUint64(line, g0|g1<<16|g2<<32|g3<<48|0x2030_2030_2030_2030)
		}
		for i, g := range row {
			seen |= uint64(uint8(g)) + 1
			line[2*i], line[2*i+1] = '0'+byte(g), ' '
		}
		dst[k-1] = '\n'
	}
	return seen < 4
}

// genotypeTextBytes is the size of WriteGenotypes' text for m when every
// genotype is in {0,1,2}.
func genotypeTextBytes(m *GenotypeMatrix) int {
	n := 0
	for j, row := range m.Rows {
		n += rowTextBytes(j, len(row))
	}
	return n
}

// rowTextBytes is the size of SNP j's line of patients genotypes in {0,1,2}:
// the id's digits, a tab, one byte per genotype and per separator, and a
// newline.
func rowTextBytes(j, patients int) int {
	n := 1 + max(2*patients, 1)
	for ; j >= 10; j /= 10 {
		n++
	}
	return n + 1
}

// ReadGenotypes parses the genotype text format. Each row is read by the
// analysis scan's own codec — appendText (the canonical packer, then the
// tokenizer) into a one-row scratch block, then DecodeRow — so a row is read
// here exactly when ParseGenoText would pack it, with the same error; the
// first row fixes the patient count. The table rules are readTable's.
func ReadGenotypes(r io.Reader) (*GenotypeMatrix, error) {
	var blk GenoBlock
	var text []byte
	rows, err := readTable(r, genotypeTable, func(rest string) ([]Genotype, error) {
		text = append(text[:0], rest...)
		if blk.SNPs == nil {
			blk = NewGenoBlock(len(strings.FieldsFunc(rest, func(c rune) bool { return c == ' ' || c == '\t' })), 1)
		}
		blk.SNPs, blk.Counts, blk.Packed = blk.SNPs[:0], blk.Counts[:0], blk.Packed[:0]
		if err := blk.appendText(0, text); err != nil {
			return nil, err
		}
		return blk.DecodeRow(0, nil), nil
	})
	if err != nil {
		return nil, err
	}
	return &GenotypeMatrix{Patients: blk.Patients, Rows: rows}, nil
}

// ParseGenotypeFields converts whitespace-split genotype tokens into values
// by the codec's per-field rule (fieldGenotype), so that one generated line
// can be checked without reading the whole matrix.
func ParseGenotypeFields(fields []string) ([]Genotype, error) {
	gs := make([]Genotype, len(fields))
	for i, f := range fields {
		v, err := fieldGenotype(f, i+1)
		if err != nil {
			return nil, err
		}
		gs[i] = v
	}
	return gs, nil
}

// WritePhenotype writes p in the phenotype text format.
func WritePhenotype(w io.Writer, p *Phenotype) error {
	return writeLines(w, len(p.Y), func(bw *bufio.Writer, i int) { fmt.Fprintf(bw, "%d\t%g\t%d\n", i, p.Y[i], p.Event[i]) })
}

// ReadPhenotype parses the phenotype text format.
func ReadPhenotype(r io.Reader) (*Phenotype, error) {
	type rec struct {
		y float64
		e uint8
	}
	recs, err := readTable(r, phenotypeTable, func(rest string) (rec, error) {
		yStr, evStr, _ := strings.Cut(rest, "\t")
		y, err := strconv.ParseFloat(yStr, 64)
		if err != nil || !finite(y) {
			return rec{}, fmt.Errorf("bad outcome %q", yStr)
		}
		ev, err := strconv.Atoi(evStr)
		if err != nil || ev < 0 || ev > 1 {
			return rec{}, fmt.Errorf("bad event indicator %q", evStr)
		}
		return rec{y, uint8(ev)}, nil
	})
	if err != nil {
		return nil, err
	}
	p := NewPhenotype(len(recs))
	for i, rec := range recs {
		p.Y[i], p.Event[i] = rec.y, rec.e
	}
	return p, nil
}

// WriteWeights writes w in the weight text format.
func WriteWeights(w io.Writer, ws Weights) error {
	return writeLines(w, len(ws), func(bw *bufio.Writer, j int) { fmt.Fprintf(bw, "%d\t%g\n", j, ws[j]) })
}

// ReadWeights parses the weight text format.
func ReadWeights(r io.Reader) (Weights, error) {
	return readTable(r, weightTable, func(rest string) (float64, error) {
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || !(v >= 0 && finite(v)) {
			return 0, fmt.Errorf("bad weight %q", rest)
		}
		return v, nil
	})
}

// WriteSNPSets writes s in the SNP-set text format.
func WriteSNPSets(w io.Writer, s SNPSets) error {
	return writeLines(w, len(s), func(bw *bufio.Writer, k int) {
		bw.WriteString(s[k].Name)
		bw.WriteByte('\t')
		for i, j := range s[k].SNPs {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.Itoa(j))
		}
		bw.WriteByte('\n')
	})
}

// writeLines writes n lines through one buffered writer, line i by line. A
// write error stops every later write, and is returned.
func writeLines(w io.Writer, n int, line func(bw *bufio.Writer, i int)) error {
	bw := bufio.NewWriter(w)
	for i := range n {
		line(bw, i)
	}
	return bw.Flush()
}

// writeFloatRow writes the line "<id>\t<v_1> <v_2> ... <v_n>" of a float
// table, each value in strconv's shortest round-trip form, built in a
// strings.Builder of its own.
func writeFloatRow(bw *bufio.Writer, id int, vals []float64) {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(id))
	sb.WriteByte('\t')
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	sb.WriteByte('\n')
	bw.WriteString(sb.String())
}

// ReadSNPSets parses the SNP-set text format. Its key is a set's name, not
// an id, so it shares readTable's line loop only.
func ReadSNPSets(r io.Reader) (SNPSets, error) {
	var sets SNPSets
	err := eachLine(r, func(n int, line string) error {
		name, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("data: snpset line %d: missing tab", n)
		}
		var snps []int
		for _, tok := range strings.Split(rest, ",") {
			if tok = strings.TrimSpace(tok); tok == "" {
				continue
			}
			j, err := strconv.Atoi(tok)
			if err != nil || j < 0 {
				return fmt.Errorf("data: snpset line %d: bad SNP id %q", n, tok)
			}
			snps = append(snps, j)
		}
		if len(snps) == 0 {
			return fmt.Errorf("data: snpset line %d: set %q is empty", n, name)
		}
		sets = append(sets, SNPSet{Name: name, SNPs: snps})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("data: empty SNP-set file")
	}
	return sets, nil
}

// finite reports whether v is neither NaN nor ±Inf, which strconv.ParseFloat
// accepts as "NaN" and "Inf" but no analysis can score.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// floatRow is the row parser of the float tables (covariates, the phenotype
// matrix): rest's fields, split at any white space, each a finite float, as
// many as the table's first row holds — *width, -1 until that row sets it.
// bad words the error of a field that is not one, given its 1-based index.
func floatRow(rest string, width *int, bad func(i int, f string) error) ([]float64, error) {
	fields := strings.Fields(rest)
	vals := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || !finite(v) {
			return nil, bad(i+1, f)
		}
		vals[i] = v
	}
	if *width == -1 {
		*width = len(vals)
	} else if len(vals) != *width {
		return nil, fmt.Errorf("%d values, want %d", len(vals), *width)
	}
	return vals, nil
}

// table is how an id-keyed text table words its errors — "data: <name> line
// 3: bad <id> id …", "data: empty <empty>", "data: duplicate <dup> 4",
// "data: 5 <rows> but max <id> id is 6" — and fields, its lines' count of
// tab-separated fields if fixed (0 if not).
type table struct {
	name, id, rows, dup, empty string
	fields                     int
}

var (
	genotypeTable    = table{"genotype", "SNP", "genotype rows", "genotype row for SNP", "genotype file", 0}
	phenotypeTable   = table{"phenotype", "patient", "phenotype rows", "phenotype for patient", "phenotype file", 3}
	weightTable      = table{"weight", "SNP", "weights", "weight for SNP", "weight file", 0}
	covariateTable   = table{"covariate", "patient", "covariate rows", "covariates for patient", "covariate file", 0}
	phenoMatrixTable = table{"phenomatrix", "phenotype", "phenotype rows", "phenotype row for id", "phenotype matrix", 0}
)

// readTable is the one scan of the dataset's id-keyed text tables (genotypes,
// phenotype, weights, covariates, the phenotype matrix), and the only code
// that knows their rules. Over eachLine's lines it cuts each at its first tab
// into a non-negative decimal id and the rest, which parse turns into the row
// (its error is reported naming the line); an id already read is a duplicate.
// Once the input ends there must be a row, and the ids must be exactly
// 0..N−1 for N rows, in any order. It returns the rows placed by id. Until
// that check has passed the rows wait in a map keyed by id, so no allocation
// is sized by an id the input holds.
func readTable[R any](r io.Reader, t table, parse func(rest string) (R, error)) ([]R, error) {
	rows := map[int]R{}
	maxID := -1
	err := eachLine(r, func(n int, line string) error {
		if t.fields > 0 && 1+strings.Count(line, "\t") != t.fields {
			return fmt.Errorf("data: %s line %d: want %d fields, got %d", t.name, n, t.fields, 1+strings.Count(line, "\t"))
		}
		idStr, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("data: %s line %d: missing tab", t.name, n)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 {
			return fmt.Errorf("data: %s line %d: bad %s id %q", t.name, n, t.id, idStr)
		}
		row, err := parse(rest)
		if err != nil {
			return fmt.Errorf("data: %s line %d: %w", t.name, n, err)
		}
		if _, dup := rows[id]; dup {
			return fmt.Errorf("data: duplicate %s %d", t.dup, id)
		}
		rows[id], maxID = row, max(maxID, id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: empty %s", t.empty)
	}
	if len(rows) != maxID+1 {
		return nil, fmt.Errorf("data: %d %s but max %s id is %d", len(rows), t.rows, t.id, maxID)
	}
	placed := make([]R, len(rows))
	for id, row := range rows {
		placed[id] = row
	}
	return placed, nil
}

// eachLine calls fn with each non-empty line of r and its 1-based number,
// stopping at fn's first error. A line ends at '\n' alone, as in the
// partition text the analysis scans: a '\r' before it is the line's. A line
// may hold up to 64 MiB (a million-patient genotype row is 2 MB).
func eachLine(r io.Reader, fn func(n int, line string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	for n := 1; sc.Scan(); n++ {
		if line := sc.Text(); line != "" {
			if err := fn(n, line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
