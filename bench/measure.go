// Measurement helpers: order statistics, process CPU and memory, and the Go
// runtime's own accounting.

package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so the
// spreads -compare prints are the ones the driver computes. Fewer than two
// samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timed returns how long f took, in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// medianOf runs f reps times and returns the median duration in seconds.
func medianOf(reps int, f func()) float64 {
	secs := make([]float64, reps)
	for i := range secs {
		secs[i] = timed(f)
	}
	return median(secs)
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark in MB
// (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// currentRSSMB returns the resident set right now, from /proc/self/statm; 0
// where that file does not exist.
func currentRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6
}

// runtimeSnap is the Go runtime's accounting at one instant.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
	heapInuse  uint64
	gcCPU      float64 // cumulative GC CPU seconds (the runtime's estimate)
	procCPU    float64 // cumulative user+system CPU seconds of the process
	rssMB      float64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	snap := runtimeSnap{
		totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, heapInuse: ms.HeapInuse,
		procCPU: cpuSeconds(), rssMB: currentRSSMB(),
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = gc[0].Value.Float64()
	}
	return snap
}

// runtimeMetrics fills the runtime.* layer from two snapshots around ops
// operations.
func runtimeMetrics(m metricSet, before, after runtimeSnap, ops int) {
	if ops <= 0 {
		return
	}
	m["runtime.alloc_bytes_per_op"] = float64(after.totalAlloc-before.totalAlloc) / float64(ops)
	m["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
	if cpu := after.procCPU - before.procCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	m["runtime.heap_inuse_end_mb"] = float64(after.heapInuse) / 1e6
	m["runtime.rss_mb_per_kop"] = (after.rssMB - before.rssMB) / float64(ops) * 1000
}
