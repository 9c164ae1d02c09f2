//go:build linux

package stats

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2SelectedWhereHostHasIt pins the CPUID/XGETBV check to the kernel's
// own view of the host: the assembly walks must be selected exactly where
// /proc/cpuinfo lists avx2. Every bit-equality test passes on either path,
// so a wrong check would otherwise route an AVX2 host to the Go walk
// unnoticed.
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
		if want := slices.Contains(strings.Fields(flags), "avx2"); useAVX2 != want {
			t.Fatalf("useAVX2 = %v, but cpuinfo's avx2 flag present = %v", useAVX2, want)
		}
		return
	}
	t.Skip("cpuinfo has no flags line")
}
