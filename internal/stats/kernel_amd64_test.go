//go:build linux

package stats

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2SelectedWhereHostHasIt pins the CPUID/XGETBV check to the kernel's
// own view of the host: the assembly routines must be selected exactly where
// /proc/cpuinfo lists avx2 and popcnt (compactChunks counts each lane's
// entries with POPCNT). Every bit-equality test passes on either path, so a
// wrong check would otherwise route an AVX2 host to the Go loops unnoticed.
func TestAVX2SelectedWhereHostHasIt(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		fields := strings.Fields(flags)
		avx2, popcnt := slices.Contains(fields, "avx2"), slices.Contains(fields, "popcnt")
		if useAVX2 != (avx2 && popcnt) {
			t.Fatalf("useAVX2 = %v, but cpuinfo's avx2 flag present = %v, popcnt = %v", useAVX2, avx2, popcnt)
		}
		return
	}
	t.Skip("cpuinfo has no flags line")
}

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
