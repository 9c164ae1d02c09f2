package data

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// packBodies runs f once with packCanon64 selected, where the host has AVX2,
// and once with the word loop alone, as a host without AVX2 packs.
func packBodies(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, body := range []struct {
		name string
		avx2 bool
	}{{"words", false}, {"avx2", true}} {
		if body.avx2 && !HasAVX2 {
			continue
		}
		useAVX2 = body.avx2
		t.Run(body.name, f)
	}
}

// TestAVX2SelectedWhereHostHasIt pins the CPUID/XGETBV check to the host's
// own view: HasAVX2 must hold exactly where /proc/cpuinfo lists avx2 and
// popcnt (stats' compactChunks counts each lane's entries with POPCNT), and
// HasAVX512F exactly where it lists avx512f. Every bit-equality test passes
// on either path, so a wrong check would otherwise route an AVX2 or AVX-512
// host to a slower walk unnoticed.
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
		if HasAVX2 != (avx2 && popcnt) {
			t.Fatalf("HasAVX2 = %v, but cpuinfo's avx2 flag present = %v, popcnt = %v", HasAVX2, avx2, popcnt)
		}
		if avx512f := slices.Contains(fields, "avx512f"); HasAVX512F != avx512f {
			t.Fatalf("HasAVX512F = %v, but cpuinfo's avx512f flag present = %v", HasAVX512F, avx512f)
		}
		return
	}
	t.Skip("cpuinfo has no flags line")
}
