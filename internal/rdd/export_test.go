package rdd

import (
	"runtime"
	"testing"
	"time"
)

// RetainedMapOutputs counts the map outputs c's shuffle manager holds, for
// the soak test in package rdd_test.
func RetainedMapOutputs(c *Context) int { return c.shuffle.retained() }

// retained counts the map outputs the manager holds.
func (sm *shuffleManager) retained() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	n := 0
	for _, outs := range sm.outputs {
		for _, mo := range outs {
			if mo != nil {
				n++
			}
		}
	}
	return n
}

// AwaitCleanups forces collections until done reports true, failing t after
// ten seconds. Nothing waits for runtime cleanups — they run on their own
// goroutine after the collection that finds their object unreachable — so
// the cleaner's tests poll.
func AwaitCleanups(t testing.TB, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not cleaned after 10 s of forced collections", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
