package stats

import (
	"strings"
	"testing"

	"sparkscore/internal/data"
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

// eachWalk runs f once per cell walk the host has, named: in Go, as a host
// without AVX2 walks; with AVX2 alone, as a host without AVX-512F does; and
// with AVX-512F. It restores the host's own selection after.
func eachWalk(f func(walk string)) {
	defer func(avx2, avx512 bool) { useAVX2, useAVX512 = avx2, avx512 }(useAVX2, useAVX512)
	for _, body := range []struct {
		name         string
		avx2, avx512 bool
	}{{"go", false, false}, {"avx2", true, false}, {"avx512", true, true}} {
		if body.avx2 && !data.HasAVX2 || body.avx512 && !data.HasAVX512F {
			continue
		}
		useAVX2, useAVX512 = body.avx2, body.avx512
		f(body.name)
	}
}
