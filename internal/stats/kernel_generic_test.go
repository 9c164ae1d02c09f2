//go:build !amd64

package stats

// eachWalk runs f once: off amd64 the Go walk is the only one.
func eachWalk(f func(walk string)) { f("go") }
