// The amd64 entry points of the float walks, packedRows4 and cellPairs in
// AVX2 and tilePairs in AVX-512F in kernel_amd64.s, without FMA, so each
// lane or column is its own chain of rounded products and adds in the
// written order, and of the panel kernel's lane-list compaction,
// compactChunks, the same lists as the Go loop 32 patients a step. data's
// CPUID/XGETBV check, run at init, selects them; a host without AVX-512F
// walks tile pairs as two cellPairs calls, and a host without AVX2 runs what
// other GOARCHes run (kernel_generic.go), the same results in Go.

package stats

import (
	"fmt"

	"sparkscore/internal/data"
)

// useAVX2 selects the AVX2 routines and useAVX512 tilePairs: data's
// CPUID/XGETBV check, the one probe, read once at init. Only tests write
// them, to run the slower walks on a host that has the faster ones.
var (
	useAVX2   = data.HasAVX2
	useAVX512 = data.HasAVX512F
)

// dosageQuads[v] holds the dosages of byte v's four 2-bit codes in lane
// order, so one 32-byte load hands packedRows4 a whole byte: one ymm
// register's worth.
var dosageQuads = func() (t [256][4]float64) {
	for v := range t {
		for l := range t[v] {
			t[v][l] = codeDosage[v>>uint(2*l)&3]
		}
	}
	return t
}()

// packedRows4 is in kernel_amd64.s. It reads table, 4·full float64s from r,
// and full bytes from each of the four rows at packed + j·stride, and writes
// the four rows' lanes; the caller checks every one of those reads.
//
//go:noescape
func packedRows4(table *[256][4]float64, packed *byte, stride, full int, r *float64, lanes *[4][4]float64)

// cellPairs is in kernel_amd64.s. It reads the listed cells of tile, each
// index checked against len(tile) first, and reports false, with sums
// unwritten, at the first out of range.
//
//go:noescape
func cellPairs(tile []panelCell, a, b []uint32, sums *[2]panelCell) bool

// sumCellPairs is sumCells(tile, a, &sums[0]) then sumCells(tile, b,
// &sums[1]), bit for bit, in one walk of the two lists where the host has
// AVX2. On an out-of-range index, or without AVX2, it runs exactly those two
// calls, which panic on the index as indexing does.
func sumCellPairs(tile []panelCell, a, b []uint32, sums *[2]panelCell) {
	if !useAVX2 || !cellPairs(tile, a, b, sums) {
		sumCells(tile, a, &sums[0])
		sumCells(tile, b, &sums[1])
	}
}

// tilePairs is in kernel_amd64.s. It reads the listed cells of both tiles of
// pair, each index checked against len(pair)/2 first, and reports false,
// with sums unwritten, at the first out of range.
//
//go:noescape
func tilePairs(pair []panelCell, a, b []uint32, sums *[4]panelCell) bool

// walkTilePairs runs sumTilePairs in one tilePairs call where the host has
// AVX-512F, and reports whether it did.
func walkTilePairs(pair []panelCell, a, b []uint32, sums *[4]panelCell) bool {
	return useAVX512 && tilePairs(pair, a, b, sums)
}

// scoreRowGroups scores the block's rows four at a time in PackedRowScores'
// order and returns how many it scored: every whole group of four, or none
// when a row has no full byte or the host has no AVX2. PackedRowScores has
// checked r and the block's shape, and sized out to its rows.
func scoreRowGroups(blk data.GenoBlock, r, out []float64) int {
	full := len(r) >> 2
	if full == 0 || !useAVX2 {
		return 0
	}
	stride, grouped := blk.RowBytes, len(out)&^3
	var lanes [4][4]float64
	for row := 0; row < grouped; row += 4 {
		packedRows4(&dosageQuads, &blk.Packed[row*stride], stride, full, &r[0], &lanes)
		for j := range lanes {
			l, packed := &lanes[j], blk.Row(row+j)
			for i, x := range r[4*full:] { // the final, partial byte
				l[i] += codeDosage[(packed[full]>>uint(2*i))&3] * x
			}
			out[row+j] = (l[0] + l[1]) + (l[2] + l[3])
		}
	}
	return grouped
}

// laneCompress[m] lists the positions of mask m's set bits in ascending
// order, then zeros: VPERMD through row m moves the dwords m selects to the
// front of a ymm register, in order.
var laneCompress = func() (t [256][8]uint32) {
	for m := range t {
		k := 0
		for j := range 8 {
			if m>>j&1 != 0 {
				t[m][k] = uint32(j)
				k++
			}
		}
	}
	return t
}()

// compactChunks is in kernel_amd64.s. It compacts chunks 8-byte chunks of the
// row at packed into the four lane lists, lane l's entries stored from
// cells[w[l]] on, and advances each w[l] past its entries. Every chunk stores
// eight entries per lane whatever its count, so it reads 8·chunks bytes of
// packed and writes cells[w[l] : w[l]+8·chunks] of each lane; the caller
// checks every one of those.
//
//go:noescape
func compactChunks(compress *[256][8]uint32, packed *byte, chunks int, cells *uint32, w *[4]int)

// laneChunks is compactBytes over the row's whole 8-byte chunks, 32 patients
// a step, and returns how many bytes it took: every whole chunk, or none when
// the row has none or the host has no AVX2. A lane's stores reach up to
// 8·⌊n/32⌋ entries past its starting cursor, so the lanes' segments must be
// at least that long — the panel kernel's ⌈n/4⌉-entry segments are — or one
// lane's stores would overwrite the next lane's entries.
func laneChunks(cells []uint32, packed []byte, n int, w *[4]int) int {
	chunks := n >> 5
	if chunks == 0 || !useAVX2 {
		return 0
	}
	if len(packed) < 8*chunks {
		panic(fmt.Sprintf("stats: a row of %d patients in %d packed bytes", n, len(packed)))
	}
	for l, at := range w {
		if at < 0 || at > len(cells)-8*chunks {
			panic(fmt.Sprintf("stats: lane %d at cell %d has no room for %d entries in %d", l, at, 8*chunks, len(cells)))
		}
	}
	compactChunks(&laneCompress, &packed[0], chunks, &cells[0], w)
	return 8 * chunks
}
