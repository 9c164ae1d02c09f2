package data

// cpuFeatures is in pack_amd64.s: CPUID and XGETBV. avx2 holds when the CPU
// has AVX2 and POPCNT and the OS saves the ymm registers, avx512f when the
// CPU has AVX-512F, AVX and POPCNT and the OS saves the zmm and opmask
// registers.
func cpuFeatures() (avx2, avx512f bool)

// HasAVX2 and HasAVX512F are the one CPUID/XGETBV check, run at package init.
// HasAVX2 is behind this package's packCanon64 and the stats kernels' AVX2
// assembly, HasAVX512F behind the panel kernel's two-tile cell walk. A host
// without AVX2 runs the Go loops other GOARCHes run, and one without
// AVX-512F the AVX2 walk, with the same results.
var HasAVX2, HasAVX512F = cpuFeatures()

// useAVX2 selects packCanon64. Only tests write it, to run the word loop
// alone on an AVX2 host.
var useAVX2 = HasAVX2

// packCanon64 is in pack_amd64.s. It reads 64·groups bytes of text and
// writes 8·groups bytes of row; canonGroups checks both spans.
//
//go:noescape
func packCanon64(text *byte, groups int, row *byte) (sum uint64, ok bool)

// canonGroups packs the whole 64-byte groups of a canonical row — 32 patients,
// 8 row bytes each — in AVX2 and returns how many there were and their allele
// count: none without AVX2. It reports !ok if any lane in them is not a digit
// in {0,1,2} followed by a space, each lane checked exactly as packCanonical's
// word loop checks it; row then holds garbage codes.
func canonGroups(fields, row []byte) (groups int, sum uint64, ok bool) {
	groups = len(fields) >> 6
	if groups == 0 || !useAVX2 {
		return 0, 0, true
	}
	_ = row[8*groups-1]
	sum, ok = packCanon64(&fields[0], groups, &row[0])
	return groups, sum, ok
}
