//go:build !amd64

package data

import "testing"

// packBodies runs f once: off amd64 the word loop is the only body.
func packBodies(t *testing.T, f func(t *testing.T)) { t.Run("words", f) }
