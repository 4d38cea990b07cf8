package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procCPU is the CPU time, user and system, that every thread of the
// process has used so far. Unlike wall time it does not grow while the
// process waits for a CPU that other programs or the hypervisor hold.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Process-wide runtime metrics the benchmark reads.
const (
	liveHeap   = "/gc/heap/live:bytes"
	allocBytes = "/gc/heap/allocs:bytes"
	allocObjs  = "/gc/heap/allocs:objects"
	gcCPU      = "/cpu/classes/gc/total:cpu-seconds"
	totalCPU   = "/cpu/classes/total:cpu-seconds"
)

// readMetrics reads the named runtime metrics as float64s.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// heapPeak samples the live heap (as marked by the last GC) every
// interval until stop, keeping the largest value seen.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.peak = readMetrics(liveHeap)[0]
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				if v := readMetrics(liveHeap)[0]; v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in bytes.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	if v := readMetrics(liveHeap)[0]; v > h.peak {
		h.peak = v
	}
	return h.peak
}
