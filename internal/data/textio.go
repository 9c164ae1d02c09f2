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

// ReadGenotypes parses the genotype text format. Lines may arrive in any
// order (HDFS blocks are read in parallel); the SNP index on each line places
// the row.
func ReadGenotypes(r io.Reader) (*GenotypeMatrix, error) {
	type parsedRow struct {
		snp int
		gs  []Genotype
	}
	var rows []parsedRow
	maxSNP := -1
	patients := -1
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		snpStr, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("data: genotype line %d: missing tab", sc.lineNo)
		}
		snp, err := strconv.Atoi(snpStr)
		if err != nil || snp < 0 {
			return nil, fmt.Errorf("data: genotype line %d: bad SNP id %q", sc.lineNo, snpStr)
		}
		fields := strings.Fields(rest)
		gs, err := ParseGenotypeFields(fields)
		if err != nil {
			return nil, fmt.Errorf("data: genotype line %d: %v", sc.lineNo, err)
		}
		if patients == -1 {
			patients = len(gs)
		} else if len(gs) != patients {
			return nil, fmt.Errorf("data: genotype line %d: %d genotypes, want %d", sc.lineNo, len(gs), patients)
		}
		if snp > maxSNP {
			maxSNP = snp
		}
		rows = append(rows, parsedRow{snp, gs})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: empty genotype file")
	}
	if len(rows) != maxSNP+1 {
		return nil, fmt.Errorf("data: %d genotype rows but max SNP id is %d", len(rows), maxSNP)
	}
	m := &GenotypeMatrix{Patients: patients, Rows: make([][]Genotype, maxSNP+1)}
	for _, pr := range rows {
		if m.Rows[pr.snp] != nil {
			return nil, fmt.Errorf("data: duplicate genotype row for SNP %d", pr.snp)
		}
		m.Rows[pr.snp] = pr.gs
	}
	return m, nil
}

// ParseGenotypeFields converts whitespace-split genotype tokens into values,
// validating the {0,1,2} domain. It is exported so engine partitions can
// parse lines without going through a full matrix read.
func ParseGenotypeFields(fields []string) ([]Genotype, error) {
	gs := make([]Genotype, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 || v > 2 {
			return nil, fmt.Errorf("field %d: bad genotype %q", i+1, f)
		}
		gs[i] = Genotype(v)
	}
	return gs, nil
}

// WritePhenotype writes p in the phenotype text format.
func WritePhenotype(w io.Writer, p *Phenotype) error {
	bw := bufio.NewWriter(w)
	for i := range p.Y {
		if _, err := fmt.Fprintf(bw, "%d\t%g\t%d\n", i, p.Y[i], p.Event[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPhenotype parses the phenotype text format.
func ReadPhenotype(r io.Reader) (*Phenotype, error) {
	type rec struct {
		y float64
		e uint8
	}
	recs := map[int]rec{}
	maxID := -1
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("data: phenotype line %d: want 3 fields, got %d", sc.lineNo, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("data: phenotype line %d: bad patient id %q", sc.lineNo, parts[0])
		}
		y, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !finite(y) {
			return nil, fmt.Errorf("data: phenotype line %d: bad outcome %q", sc.lineNo, parts[1])
		}
		ev, err := strconv.Atoi(parts[2])
		if err != nil || ev < 0 || ev > 1 {
			return nil, fmt.Errorf("data: phenotype line %d: bad event indicator %q", sc.lineNo, parts[2])
		}
		if _, dup := recs[id]; dup {
			return nil, fmt.Errorf("data: duplicate phenotype for patient %d", id)
		}
		recs[id] = rec{y, uint8(ev)}
		if id > maxID {
			maxID = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("data: empty phenotype file")
	}
	if len(recs) != maxID+1 {
		return nil, fmt.Errorf("data: %d phenotype rows but max patient id is %d", len(recs), maxID)
	}
	p := NewPhenotype(maxID + 1)
	for id, r := range recs {
		p.Y[id] = r.y
		p.Event[id] = r.e
	}
	return p, nil
}

// WriteWeights writes w in the weight text format.
func WriteWeights(w io.Writer, ws Weights) error {
	bw := bufio.NewWriter(w)
	for j, v := range ws {
		if _, err := fmt.Fprintf(bw, "%d\t%g\n", j, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWeights parses the weight text format.
func ReadWeights(r io.Reader) (Weights, error) {
	vals := map[int]float64{}
	maxID := -1
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		idStr, vStr, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("data: weight line %d: missing tab", sc.lineNo)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("data: weight line %d: bad SNP id %q", sc.lineNo, idStr)
		}
		v, err := strconv.ParseFloat(vStr, 64)
		if err != nil || !(v >= 0 && finite(v)) {
			return nil, fmt.Errorf("data: weight line %d: bad weight %q", sc.lineNo, vStr)
		}
		if _, dup := vals[id]; dup {
			return nil, fmt.Errorf("data: duplicate weight for SNP %d", id)
		}
		vals[id] = v
		if id > maxID {
			maxID = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("data: empty weight file")
	}
	if len(vals) != maxID+1 {
		return nil, fmt.Errorf("data: %d weights but max SNP id is %d", len(vals), maxID)
	}
	w := make(Weights, maxID+1)
	for id, v := range vals {
		w[id] = v
	}
	return w, nil
}

// WriteSNPSets writes s in the SNP-set text format.
func WriteSNPSets(w io.Writer, s SNPSets) error {
	bw := bufio.NewWriter(w)
	var sb strings.Builder
	for _, set := range s {
		sb.Reset()
		sb.WriteString(set.Name)
		sb.WriteByte('\t')
		for i, j := range set.SNPs {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(j))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSNPSets parses the SNP-set text format.
func ReadSNPSets(r io.Reader) (SNPSets, error) {
	var sets SNPSets
	sc := newLineScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		name, rest, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("data: snpset line %d: missing tab", sc.lineNo)
		}
		tokens := strings.Split(rest, ",")
		snps := make([]int, 0, len(tokens))
		for _, tok := range tokens {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			j, err := strconv.Atoi(tok)
			if err != nil || j < 0 {
				return nil, fmt.Errorf("data: snpset line %d: bad SNP id %q", sc.lineNo, tok)
			}
			snps = append(snps, j)
		}
		if len(snps) == 0 {
			return nil, fmt.Errorf("data: snpset line %d: set %q is empty", sc.lineNo, name)
		}
		sets = append(sets, SNPSet{Name: name, SNPs: snps})
	}
	if err := sc.Err(); err != nil {
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

// lineScanner wraps bufio.Scanner with line counting and a buffer large
// enough for million-patient genotype rows.
type lineScanner struct {
	*bufio.Scanner
	lineNo int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	return &lineScanner{Scanner: sc}
}

func (s *lineScanner) Scan() bool {
	ok := s.Scanner.Scan()
	if ok {
		s.lineNo++
	}
	return ok
}
