package stats

import (
	"strings"
	"testing"
)

// TestLaneChunksChecksItsBounds: before compactChunks runs, its wrapper
// refuses a row shorter than its whole chunks and a lane whose eight-entry
// stores could leave the cells.
func TestLaneChunksChecksItsBounds(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: laneChunks takes no chunks")
	}
	packed := make([]byte, 16)
	for name, call := range map[string]func(){
		"short row":       func() { laneChunks(make([]uint32, 64), packed[:15], 64, &[4]int{0, 16, 32, 48}) },
		"short cells":     func() { laneChunks(make([]uint32, 63), packed, 64, &[4]int{0, 16, 32, 48}) },
		"lane past cells": func() { laneChunks(make([]uint32, 64), packed, 64, &[4]int{0, 16, 32, 49}) },
		"negative cursor": func() { laneChunks(make([]uint32, 64), packed, 64, &[4]int{0, -1, 32, 48}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "stats: ") {
					t.Errorf("%s: panic %q, want a stats: message", name, msg)
				}
			}()
			call()
		}()
	}
}
