package tensor

import (
	"fmt"
	"math/bits"

	"reffil/internal/parallel"
)

// freeList is the one source of tensor storage: New, every kernel result and
// the kernels' own scratch tensors (such as MatMulT1's transpose) draw their
// buffers from it, and Release hands them back. It is one
// parallel.ScratchPool per size class, so a training step that builds the
// same tape shapes every time reuses the previous step's buffers instead of
// allocating (and, for fresh make()s, zeroing) new ones. The pools are safe
// for the concurrent client replicas of the federated engine and the
// goroutines of parallel.For.
//
// Determinism is unaffected: a recycled buffer's stale contents are never
// read. New clears it; the kernels that skip the clear (see empty) write
// every element before anything reads one.
var freeList [numClasses]parallel.ScratchPool[float64]

// numClasses covers every length an int can hold (see sizeClass).
const numClasses = 8*(bits.UintSize-4) + 17

// sizeClass maps a buffer length n ≥ 1 to its class and the capacity of
// every buffer in that class. Lengths up to 8 are classes of their own;
// above that each range (2^(e-1), 2^e] splits into eight classes of equal
// width (capacities 9, 10, …, 16, 18, 20, …, 32, 36, …), so a buffer serves
// every length of its class and wastes less than an eighth of itself on the
// shortest one.
func sizeClass(n int) (class, capacity int) {
	if n <= 8 {
		return n, n
	}
	e := bits.Len(uint(n - 1)) // 2^(e-1) < n ≤ 2^e
	step := 1 << (e - 4)
	m := (n + step - 1) / step // 9..16
	return 8*(e-4) + m, m * step
}

// putBuf returns a buffer to the free list.
func putBuf(b *[]float64) {
	c, _ := sizeClass(cap(*b))
	freeList[c].Put(b)
}

// newTensor builds a tensor of the given shape on free-list storage,
// zero-filled when zero is set. A free-list miss allocates a buffer of the
// class's full capacity, so that Release can recycle it for any length of
// the class; make() zero-fills it already.
func newTensor(shape []int, zero bool) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{shape: append([]int(nil), shape...)}
	if n == 0 {
		t.data = []float64{}
		return t
	}
	t.owned = true
	c, capacity := sizeClass(n)
	if b := freeList[c].Recycled(capacity); b != nil {
		t.buf = b
		t.data = (*b)[:n]
		if zero {
			clear(t.data)
		}
		return t
	}
	t.data = make([]float64, n, capacity)
	return t
}

// empty is New without the zero fill, for kernels that write every element
// of their result before anything reads it.
func empty(shape ...int) *Tensor { return newTensor(shape, false) }

// Release hands t's storage back to the free list and empties t: any later
// read of an element panics instead of seeing another tensor's numbers.
// Only a tensor's owner may release it, and only once nothing reads it or
// any view of it — views made by Reshape or FromSlice share the storage but
// not its ownership, so releasing a view only empties the view. Releasing
// twice is a no-op.
func (t *Tensor) Release() {
	if t.owned {
		b := t.buf
		if b == nil {
			// First trip to the free list: the buffer's header is
			// allocated once and then travels with it.
			full := t.data[:cap(t.data)]
			b = &full
		}
		putBuf(b)
	}
	t.data, t.buf, t.owned = nil, nil, false
}
