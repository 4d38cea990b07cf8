package tensor

import "math"

// getBuf returns a free-list buffer of length n ≥ 1 with unspecified
// contents. Pass it back with putBuf once nothing reads it.
func getBuf(n int) *[]float64 {
	c, capacity := sizeClass(n)
	b := freeList[c].Get(capacity)
	*b = (*b)[:n]
	return b
}

// drainFreeList takes every buffer out of the free list, by class. The
// per-P caches of sync.Pool are only all reachable from one P, so callers
// pin GOMAXPROCS to 1 first.
func drainFreeList() [][]*[]float64 {
	out := make([][]*[]float64, numClasses)
	for c := range freeList {
		for b := freeList[c].Recycled(0); b != nil; b = freeList[c].Recycled(0) {
			out[c] = append(out[c], b)
		}
	}
	return out
}

// PoisonFreeList fills every buffer waiting in the free list with NaN and
// puts it back, so whatever the next allocations recycle (the previous
// step's sizes, after a warm-up step) is poisoned. It returns how many
// buffers it poisoned.
func PoisonFreeList() int {
	n := 0
	for c, bufs := range drainFreeList() {
		for _, b := range bufs {
			*b = (*b)[:cap(*b)]
			for i := range *b {
				(*b)[i] = math.NaN()
			}
			freeList[c].Put(b)
			n++
		}
	}
	return n
}

// EmptyFreeList drops every buffer waiting in the free list and returns
// how many it dropped.
func EmptyFreeList() int {
	n := 0
	for _, bufs := range drainFreeList() {
		n += len(bufs)
	}
	return n
}
