//go:build !amd64

package stats

import "sparkscore/internal/data"

// scoreRowGroups scores no rows in groups off amd64: PackedRowScores hands
// every row to packedRowScore.
func scoreRowGroups(data.GenoBlock, []float64, []float64) int { return 0 }
