//go:build !amd64

package stats

import "sparkscore/internal/data"

// scoreRowGroups scores no rows in groups off amd64: PackedRowScores hands
// every row to packedRowScore.
func scoreRowGroups(data.GenoBlock, []float64, []float64) int { return 0 }

// sumCellPairs walks the two lists one after the other off amd64.
func sumCellPairs(tile []panelCell, a, b []uint32, sums *[2]panelCell) {
	sumCells(tile, a, &sums[0])
	sumCells(tile, b, &sums[1])
}

// laneChunks compacts no chunks off amd64: compactBytes takes the whole row.
func laneChunks([]uint32, []byte, int, *[4]int) int { return 0 }
