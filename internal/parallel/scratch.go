package parallel

import "sync"

// ScratchPool is a concurrency-safe arena of reusable []T buffers for kernel
// temporaries: the tensor free list (every tensor's storage, im2col column
// matrices included) and wire-codec significance planes. It exists so hot
// paths that need a sized buffer per call stop allocating (and, for large
// buffers, stop paying the make() zeroing pass) once the pool is warm.
//
// Get hands out a *[]T so that Put can return the very same header to the
// pool without boxing a fresh one — the steady state is zero allocations.
// Buffer contents are arbitrary on Get: every element must be written before
// it is read, which all current users guarantee by construction (New
// clears, Im2col writes every position, plane shuffles assign before or-ing).
// Determinism is unaffected: a pooled buffer never carries observable state
// between uses.
type ScratchPool[T any] struct {
	pool sync.Pool
}

// Get returns a pooled buffer resliced to length n (capacity may be larger).
// The contents are unspecified.
func (p *ScratchPool[T]) Get(n int) *[]T {
	b, _ := p.pool.Get().(*[]T)
	if b == nil {
		s := make([]T, n)
		return &s
	}
	if cap(*b) < n {
		*b = make([]T, n)
	}
	*b = (*b)[:n]
	return b
}

// Recycled is Get without the allocation: it returns a pooled buffer
// resliced to length n, or nil when the pool holds none with capacity n. A
// caller that allocates its own buffers on a miss uses it, and knows that a
// non-nil result holds stale contents.
func (p *ScratchPool[T]) Recycled(n int) *[]T {
	b, _ := p.pool.Get().(*[]T)
	if b == nil || cap(*b) < n {
		return nil
	}
	*b = (*b)[:n]
	return b
}

// Put returns a buffer to the pool: one obtained from Get or Recycled, or a
// caller-allocated one of the same kind. The caller must not use the slice
// afterwards.
func (p *ScratchPool[T]) Put(b *[]T) {
	p.pool.Put(b)
}
