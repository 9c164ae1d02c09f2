package stats

import "sparkscore/internal/data"

// dosageQuads[v] holds the dosages of byte v's four 2-bit codes in lane
// order, so one 32-byte load hands packedRows4 a whole byte: two SSE2
// registers' worth.
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
func cellPairs(tile []wideCell, a, b []uint32, sums *[2]wideCell) bool

// sumCellPairs is sumCells(tile, a, &sums[0]) then sumCells(tile, b,
// &sums[1]), bit for bit, in one walk of the two lists. On an out-of-range
// index it runs exactly those two calls, which panic on it as indexing does.
func sumCellPairs(tile []wideCell, a, b []uint32, sums *[2]wideCell) {
	if !cellPairs(tile, a, b, sums) {
		sumCells(tile, a, &sums[0])
		sumCells(tile, b, &sums[1])
	}
}

// scoreRowGroups scores the block's rows four at a time in PackedRowScores'
// order and returns how many it scored: every whole group of four, or none
// when a row has no full byte. PackedRowScores has checked r and the block's
// shape, and sized out to its rows.
func scoreRowGroups(blk data.GenoBlock, r, out []float64) int {
	full := len(r) >> 2
	if full == 0 {
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
