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
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteGenotypes writes m in the genotype text format. Each row is appended
// into one reused line buffer, a genotype in {0,1,2} as its single digit and
// any other value in decimal, each with its separator in the same append (the
// row's last one dropped), so the per-genotype loop has one branch. A
// destination that can grow (a bytes.Buffer, a strings.Builder) is grown once
// to the text's size first, so staging holds one buffer of the text rather
// than a doubling chain of them.
func WriteGenotypes(w io.Writer, m *GenotypeMatrix) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(genotypeTextBytes(m))
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for j, row := range m.Rows {
		line = strconv.AppendInt(line[:0], int64(j), 10)
		line = append(line, '\t')
		for _, g := range row {
			if uint8(g) <= 2 {
				line = append(line, '0'+byte(g), ' ')
			} else {
				line = append(strconv.AppendInt(line, int64(g), 10), ' ')
			}
		}
		if len(row) > 0 {
			line = line[:len(line)-1]
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// genotypeTextBytes is the size of WriteGenotypes' text for m when every
// genotype is in {0,1,2}: per row the id's digits, a tab, one byte per
// genotype and per separator, and a newline.
func genotypeTextBytes(m *GenotypeMatrix) int {
	n := 0
	for j, row := range m.Rows {
		for d := j; ; d /= 10 {
			n++
			if d < 10 {
				break
			}
		}
		n += 1 + max(2*len(row), 1)
	}
	return n
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
