package data

// hasAVX2 is in pack_amd64.s: CPUID and XGETBV, true when the CPU has AVX2
// and POPCNT and the OS saves the ymm registers.
func hasAVX2() bool

// HasAVX2 is the one CPUID/XGETBV check, run at package init, behind this
// package's packCanon64 and the stats kernels' assembly. A host without AVX2
// runs the Go loops other GOARCHes run, with the same results.
var HasAVX2 = hasAVX2()

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
