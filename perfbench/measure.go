package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted or not);
// NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapReader reads the runtime's cumulative allocation counter and the
// live heap as of the last garbage collection. Each goroutine uses its
// own reader.
type heapReader struct{ s []metrics.Sample }

func newHeapReader() *heapReader {
	return &heapReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// read returns (cumulative allocated bytes, live heap bytes).
func (h *heapReader) read() (alloc, live uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

const mb = 1 << 20
