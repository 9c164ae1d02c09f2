// GenoBlock: the engine's columnar genotype unit. A block holds N SNP rows
// 2-bit packed in PLINK-BED code order (4 genotypes per byte, little-endian
// lanes: patient i lives in byte i/4, bits 2*(i%4)..2*(i%4)+1), alongside the
// SNP ids and per-row minor-allele counts. Packing a 1000-patient row costs
// 250 bytes instead of the ~1 KiB boxed []Genotype slice, so four times as
// many cached genotype partitions fit per executor, and score kernels can
// decode dosages straight out of the packed bytes in one pass.
//
// Blocks are built from a partition's genotype text by ParseGenoText, over
// text that may be the staged file's bytes in place: the codec only reads it,
// once, finding a canonical row's line end as it packs the row. A row in the
// canonical encoding packs 64 text bytes per step (AVX2 on amd64,
// pack_amd64.s), then a word per step; any other row is decided by the
// field-at-a-time tokenizer alone.
//
// The 2-bit codes follow the PLINK .bed convention:
//
//	code 00 -> 2 (homozygous minor)
//	code 01 -> missing
//	code 10 -> 1 (heterozygous)
//	code 11 -> 0 (homozygous major)
package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// MissingGenotype marks an uncalled genotype. It never appears in the text
// formats (which only carry {0,1,2}) but is representable in packed blocks,
// as in PLINK .bed files; score kernels treat it as dosage zero.
const MissingGenotype Genotype = -1

// CodeGenotypes maps each 2-bit PLINK-BED code to its genotype value.
var CodeGenotypes = [4]Genotype{2, MissingGenotype, 1, 0}

// genoCodes maps genotype value +1 (so MissingGenotype indexes 0) to its
// 2-bit code.
var genoCodes = [4]byte{1, 3, 2, 0}

// BlockRowBytes returns the packed size of one SNP row: 4 genotypes per byte.
func BlockRowBytes(patients int) int { return (patients + 3) / 4 }

// GenoBlock is a columnar block of packed genotype rows. Blocks are the
// cache and shuffle unit of the columnar engine: one block replaces up to a
// few hundred boxed rows.
type GenoBlock struct {
	// Patients is the number of genotypes per row.
	Patients int
	// RowBytes is BlockRowBytes(Patients), kept so row slicing needs no
	// division.
	RowBytes int
	// SNPs holds the SNP id of each row, in row order.
	SNPs []int32
	// Counts holds each row's minor-allele count (missing excluded) — the
	// per-row summary MAF-style weighting and QC filters read without a
	// decode.
	Counts []int32
	// Packed holds the rows back to back: row r is
	// Packed[r*RowBytes : (r+1)*RowBytes].
	Packed []byte
}

// NewGenoBlock returns an empty block for the given patient count with
// capacity for capRows rows.
func NewGenoBlock(patients, capRows int) GenoBlock {
	rb := BlockRowBytes(patients)
	return GenoBlock{
		Patients: patients,
		RowBytes: rb,
		SNPs:     make([]int32, 0, capRows),
		Counts:   make([]int32, 0, capRows),
		Packed:   make([]byte, 0, capRows*rb),
	}
}

// Rows returns the number of SNP rows in the block.
func (b *GenoBlock) Rows() int { return len(b.SNPs) }

// Row returns the packed bytes of row r.
func (b *GenoBlock) Row(r int) []byte {
	return b.Packed[r*b.RowBytes : (r+1)*b.RowBytes]
}

// checkSNPID rejects an id the block's int32 SNP column cannot hold: stored
// truncated it would name another SNP.
func checkSNPID(snp int64) error {
	if snp < math.MinInt32 || snp > math.MaxInt32 {
		return fmt.Errorf("data: SNP id %d does not fit the 32-bit id column", snp)
	}
	return nil
}

// AppendRow packs one SNP row onto the block. Genotypes must be in
// {MissingGenotype, 0, 1, 2}.
func (b *GenoBlock) AppendRow(snp int, g []Genotype) error {
	if err := checkSNPID(int64(snp)); err != nil {
		return err
	}
	if len(g) != b.Patients {
		return fmt.Errorf("data: SNP %d has %d genotypes, want %d", snp, len(g), b.Patients)
	}
	base := len(b.Packed)
	b.Packed = append(b.Packed, make([]byte, b.RowBytes)...)
	row := b.Packed[base:]
	var count int32
	for i, v := range g {
		if v < MissingGenotype || v > 2 {
			b.Packed = b.Packed[:base]
			return fmt.Errorf("data: SNP %d patient %d has genotype %d outside {missing,0,1,2}", snp, i, v)
		}
		row[i>>2] |= genoCodes[v+1] << uint((i&3)*2)
		if v > 0 {
			count += int32(v)
		}
	}
	b.SNPs = append(b.SNPs, int32(snp))
	b.Counts = append(b.Counts, count)
	return nil
}

// GenoBlockRows is the number of SNP rows the text ingests pack into one
// GenoBlock. Blocks never span text partitions, so a partition's final block
// may be shorter.
const GenoBlockRows = 256

// ParseSNPPrefix splits a genotype-matrix line ("snp\tg1 g2 ... gn") into its
// SNP id and the genotype fields after the tab — the cheap prefix parse an
// ingest runs before deciding whether to pack the fields at all. fields is a
// sub-slice of line.
func ParseSNPPrefix(line []byte) (snp int, fields []byte, err error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return 0, nil, fmt.Errorf("data: empty genotype line")
	}
	snpStr, fields, ok := bytes.Cut(line, []byte{'\t'})
	if !ok {
		return 0, nil, fmt.Errorf("data: genotype line missing tab: %.40q", line)
	}
	id, err := strconv.ParseInt(string(snpStr), 10, 64)
	if err != nil || id < 0 {
		return 0, nil, fmt.Errorf("data: bad SNP id %q", snpStr)
	}
	if err := checkSNPID(id); err != nil {
		return 0, nil, err
	}
	return int(id), fields, nil
}

// ParseGenoText packs a partition's genotype text — lines separated by '\n',
// as rdd's TextSplits yields them — into GenoBlocks of GenoBlockRows lines
// each, handing each block to yield as it fills, the partition's last block
// possibly shorter; a skipped line — one keep refuses, or a zero-byte line,
// which every dataset table skips too — counts toward its block's lines, so
// the geometry is the line count's alone, and a line of only white space is
// an error. It packs the SNPs keep accepts (nil keeps all) and yields no
// block keep left empty; the text is only read, and may be the staged file's
// bytes in place. It returns the first bad line's error — naming its SNP once
// the id has parsed — after yielding the blocks before that line's, or nil
// once the text is packed or yield has returned false.
//
// Reading the text once: a line that starts with a decimal id fitting int32
// and a tab, and whose 2·patients-th byte after the tab is a newline or the
// end of the text, is predicted to be that span. When keep accepts the id and
// packCanonical validates every byte of the span as canonical fields, no
// newline can lie inside it, so the prediction is the line and no newline
// search runs. Any other line is found by a newline search and decided by the
// per-line code (ParseSNPPrefix, keep, appendText), so which rows are kept,
// with what bytes and what error text, is that code's contract.
func ParseGenoText(text []byte, patients int, keep func(snp int) bool, yield func(GenoBlock) bool) error {
	// A kept line holds at least an id digit, a tab and 2·patients−1 field
	// bytes, so this bounds the rows left and sizes the final block.
	minLine := 2*patients + 2
	blk := NewGenoBlock(patients, min(GenoBlockRows, len(text)/minLine+1))
	lines := 0
	for pos := 0; ; {
		end, ok := blk.appendCanonicalLine(text, pos, keep)
		if !ok {
			end = len(text)
			if i := bytes.IndexByte(text[pos:], '\n'); i >= 0 {
				end = pos + i
			}
			if end > pos { // a zero-byte line is skipped, as every dataset table skips one
				snp, fields, err := ParseSNPPrefix(text[pos:end])
				if err != nil {
					return err
				}
				if keep == nil || keep(snp) {
					if err := blk.appendText(snp, fields); err != nil {
						return fmt.Errorf("data: SNP %d: %w", snp, err)
					}
				}
			}
		}
		if lines++; lines == GenoBlockRows || end == len(text) {
			if blk.Rows() > 0 && !yield(blk) || end == len(text) {
				return nil
			}
			if blk.Rows() > 0 {
				blk = NewGenoBlock(patients, min(GenoBlockRows, (len(text)-end)/minLine+1))
			}
			lines = 0
		}
		pos = end + 1
	}
}

// appendCanonicalLine packs the line at text[pos:] if it is a canonical row
// keep accepts: an id of at most ten digits that fits int32, a tab, and
// canonical fields ending at a newline or the end of the text. It returns the
// line's end and true, or false with the block untouched.
func (b *GenoBlock) appendCanonicalLine(text []byte, pos int, keep func(snp int) bool) (end int, ok bool) {
	if b.Patients == 0 {
		return 0, false
	}
	tab, id := pos, int64(0)
	for ; tab < len(text) && tab-pos < 10 && text[tab]-'0' <= 9; tab++ {
		id = id*10 + int64(text[tab]-'0')
	}
	end = tab + 2*b.Patients
	if tab == pos || end > len(text) || text[tab] != '\t' || id > math.MaxInt32 ||
		(end < len(text) && text[end] != '\n') || (keep != nil && !keep(int(id))) {
		return 0, false
	}
	base := len(b.Packed)
	b.Packed = append(b.Packed, make([]byte, b.RowBytes)...)
	count, ok := packCanonical(text[tab+1:end], b.Packed[base:], b.Patients)
	if !ok {
		b.Packed = b.Packed[:base]
		return 0, false
	}
	b.SNPs = append(b.SNPs, int32(id))
	b.Counts = append(b.Counts, count)
	return end, true
}

// AppendTextRow parses one row's genotype fields ("g_1 g_2 ... g_n",
// whitespace-separated, values in {0,1,2}) directly into packed form. It is
// the text codec ParseGenoText runs on the lines it does not pack itself,
// over a string: errors name the offending 1-based field, and a rejected row
// leaves the block untouched.
func (b *GenoBlock) AppendTextRow(snp int, fields string) error {
	return b.appendText(snp, []byte(fields))
}

// appendText is the text codec of the columnar parse path, which never
// materialises a boxed []Genotype row.
//
// Canonical or fall through: a row in exactly the encoding WriteGenotypes
// emits packs 64 text bytes, then a word, at a time (packCanonical); any
// other row — accepted or not — is decided by the tokenizer (packTokens)
// alone, so which rows are accepted, with what bytes and what error text, is
// the tokenizer's contract whatever path packed the row.
func (b *GenoBlock) appendText(snp int, fields []byte) error {
	if err := checkSNPID(int64(snp)); err != nil {
		return err
	}
	base := len(b.Packed)
	b.Packed = append(b.Packed, make([]byte, b.RowBytes)...)
	row := b.Packed[base:]
	count, ok := packCanonical(fields, row, b.Patients)
	if !ok {
		clear(row)
		var err error
		if count, err = packTokens(fields, row, b.Patients); err != nil {
			b.Packed = b.Packed[:base]
			return err
		}
	}
	b.SNPs = append(b.SNPs, int32(snp))
	b.Counts = append(b.Counts, count)
	return nil
}

// The canonical encoding seen eight bytes ("d d d d ") at a time as one
// little-endian word of four 16-bit lanes: digit in the low byte, separator
// in the high byte.
const (
	canonZeros  = 0x2030203020302030 // "0 0 0 0 "
	canonDigits = 0x0003000300030003 // the two value bits of each digit lane
	canonOnes   = 0x0001000100010001
	// canonGather moves lane k's two code bits to bits 48+2k … 49+2k of the
	// product; the partial products of 2-bit lanes never overlap, so nothing
	// carries into that byte.
	canonGather = 1<<48 | 1<<34 | 1<<20 | 1<<6
)

// packCanonical packs a row in the canonical text encoding — single digits in
// {0,1,2} separated by exactly one space, nothing before or after — into the
// zeroed row and returns its allele count. Every byte of fields is checked;
// on the first deviation of any kind it reports !ok and leaves deciding the
// row to packTokens (row may then hold partial codes). canonGroups packs the
// whole 64-byte groups (in AVX2 on amd64, none elsewhere); the word loop
// below packs the words after them, each lane checked as the groups' lanes
// are.
func packCanonical(fields, row []byte, patients int) (count int32, ok bool) {
	if len(fields) != 2*patients-1 {
		return 0, false
	}
	groups, sum, ok := canonGroups(fields, row)
	if !ok {
		return 0, false
	}
	words := len(fields) / 8
	var bad uint64
	for k := 8 * groups; k < words; k++ {
		// x holds each lane's value if the word is canonical: then nothing
		// but the digit bits is set and no lane reads 3.
		x := binary.LittleEndian.Uint64(fields[8*k:]) ^ canonZeros
		bad |= x&^canonDigits | x&(x>>1)&canonOnes
		// Lane code 3^d − (d>>1) is genoCodes: 0 → 11, 1 → 10, 2 → 00.
		codes := (x ^ canonDigits) - (x>>1)&canonOnes
		row[k] = byte(codes * canonGather >> 48)
		sum += x * canonOnes >> 48 // the four lanes' sum lands in the top lane
	}
	if bad != 0 {
		return 0, false
	}
	// The final group has no trailing space and may be short.
	for i := 4 * words; i < patients; i++ {
		d := fields[2*i] - '0'
		if d > 2 || (i+1 < patients && fields[2*i+1] != ' ') {
			return 0, false
		}
		row[i>>2] |= genoCodes[d+1] << uint((i&3)*2)
		sum += uint64(d)
	}
	return int32(sum), true
}

// packTokens is the field-at-a-time codec: it packs whitespace-separated
// genotype fields into the zeroed row and returns the row's allele count.
func packTokens(fields, row []byte, patients int) (count int32, err error) {
	i := 0
	for f, rest := nextField(fields); len(f) > 0; f, rest = nextField(rest) {
		v, err := fieldGenotype(f, i+1)
		if err != nil {
			return 0, err
		}
		if i < patients { // a surplus field is counted for the error below
			row[i>>2] |= genoCodes[v+1] << uint((i&3)*2)
			count += int32(v)
		}
		i++
	}
	if i != patients {
		return 0, fmt.Errorf("%d genotypes, want %d", i, patients)
	}
	return count, nil
}

// fieldGenotype is genotype text's one per-field rule, packTokens' and
// ParseGenotypeFields': a field is a single digit 0, 1 or 2. i is its 1-based
// index, for the error.
func fieldGenotype[S string | []byte](f S, i int) (Genotype, error) {
	if len(f) != 1 || f[0]-'0' > 2 {
		return 0, fmt.Errorf("field %d: bad genotype %q", i, f)
	}
	return Genotype(f[0] - '0'), nil
}

// nextField splits the next whitespace-separated token off s, mirroring
// strings.Fields one token at a time without allocating the field slice.
func nextField[S string | []byte](s S) (field, rest S) {
	start := 0
	for start < len(s) && (s[start] == ' ' || s[start] == '\t') {
		start++
	}
	end := start
	for end < len(s) && s[end] != ' ' && s[end] != '\t' {
		end++
	}
	return s[start:end], s[end:]
}

// DecodeRow decodes row r into dst (grown as needed), faithfully mapping the
// 01 code to MissingGenotype. It returns the decoded slice of length
// Patients.
func (b *GenoBlock) DecodeRow(r int, dst []Genotype) []Genotype {
	if cap(dst) < b.Patients {
		dst = make([]Genotype, b.Patients)
	}
	dst = dst[:b.Patients]
	UnpackGenotypes(b.Row(r), dst, CodeGenotypes)
	return dst
}

// UnpackGenotypes decodes packed 2-bit codes into dst through codes, the
// genotype each code stands for; len(dst) genotypes are read. CodeGenotypes
// decodes missing to MissingGenotype.
func UnpackGenotypes(packed []byte, dst []Genotype, codes [4]Genotype) {
	n := len(dst)
	for i := 0; i+4 <= n; i += 4 {
		v := packed[i>>2]
		dst[i] = codes[v&3]
		dst[i+1] = codes[(v>>2)&3]
		dst[i+2] = codes[(v>>4)&3]
		dst[i+3] = codes[v>>6]
	}
	for i := n &^ 3; i < n; i++ {
		dst[i] = codes[(packed[i>>2]>>uint((i&3)*2))&3]
	}
}

// ApproxBytes estimates the block's resident size: packed bytes, the two
// int32 columns, and the fixed header. Partial tail blocks are charged their
// actual size, which keeps cache accounting honest (a flat per-block hint
// would overcharge them).
func (b GenoBlock) ApproxBytes() int64 {
	return int64(len(b.Packed)) + 4*int64(len(b.SNPs)) + 4*int64(len(b.Counts)) + 96
}
