//go:build !amd64

package data

// canonGroups packs no 64-byte groups off amd64: packCanonical's word loop
// packs the whole row.
func canonGroups([]byte, []byte) (groups int, sum uint64, ok bool) { return 0, 0, true }
