package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

func TestSizeClass(t *testing.T) {
	prevCap := 0
	for n := 1; n <= 1<<16; n++ {
		c, capacity := sizeClass(n)
		if capacity < n || float64(capacity) >= 1.125*float64(n)+1 {
			t.Fatalf("sizeClass(%d) capacity %d outside [n, 1.125n]", n, capacity)
		}
		if c2, cap2 := sizeClass(capacity); c2 != c || cap2 != capacity {
			t.Fatalf("capacity %d of class %d maps to class %d capacity %d", capacity, c, c2, cap2)
		}
		if capacity < prevCap || c >= numClasses {
			t.Fatalf("sizeClass(%d) = (%d, %d) not monotone or out of range", n, c, capacity)
		}
		prevCap = capacity
	}
	if c, _ := sizeClass(math.MaxInt); c >= numClasses {
		t.Fatalf("sizeClass(MaxInt) = %d, want < %d", c, numClasses)
	}
}

// withPoisonedFreeList runs fn with garbage collection off and every
// free-list buffer of the given lengths holding NaN, so a kernel that
// reads storage it did not write shows NaN in its result.
func withPoisonedFreeList(t *testing.T, lens []int, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bufs []*[]float64
	for _, n := range lens {
		for i := 0; i < 4; i++ {
			bufs = append(bufs, getBuf(n))
		}
	}
	for _, b := range bufs {
		putBuf(b)
	}
	if PoisonFreeList() == 0 {
		t.Fatal("nothing was poisoned")
	}
	fn()
}

func TestRecycledStorageNeverLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randOperand(rng, 6, 5)
	b := randOperand(rng, 5, 7)
	bt := Transpose(b)
	at := Transpose(a)
	img := RandN(rng, 1, 2, 6, 6)
	geom, err := NewConvGeom(2, 6, 6, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]func() *Tensor{
		"New":       func() *Tensor { return New(6, 7) },
		"MatMul":    func() *Tensor { return MatMul(a, b) },
		"MatMulT1":  func() *Tensor { return MatMulT1(at, b) },
		"MatMulT2":  func() *Tensor { return MatMulT2(a, bt) },
		"Add":       func() *Tensor { return Add(a, a) },
		"AddBcast":  func() *Tensor { return Add(a, Row(a, 0)) },
		"Scale":     func() *Tensor { return Scale(a, 3) },
		"AddScalar": func() *Tensor { return AddScalar(a, 1) },
		"Apply":     func() *Tensor { return Exp(a) },
		"Permute":   func() *Tensor { return Permute(a, 1, 0) },
		"Narrow":    func() *Tensor { return Narrow(a, 1, 1, 4) },
		"Concat":    func() *Tensor { return Concat(1, a, a) },
		"Clone":     func() *Tensor { return a.Clone() },
		"ReduceTo":  func() *Tensor { return ReduceTo(a, []int{1, 5}) },
		"SumAxis":   func() *Tensor { return SumAxis(a, 0, false) },
		"Softmax":   func() *Tensor { return Softmax(a) },
		"Unfold":    func() *Tensor { return geom.Unfold(img.Data()) },
	}
	want := make(map[string]*Tensor, len(kernels))
	var lens []int
	for name, k := range kernels {
		want[name] = k()
		lens = append(lens, want[name].Size())
	}
	withPoisonedFreeList(t, lens, func() {
		for name, k := range kernels {
			if got := k(); !got.EqualBits(want[name]) {
				t.Errorf("%s on poisoned storage = %v, want %v", name, got, want[name])
			}
		}
	})
}

func TestReleaseEmptiesAndRecycles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	EmptyFreeList()
	x := Full(2, 3, 4)
	view := x.Reshape(12)
	view.Release() // a view does not own the storage
	if x.At(1, 1) != 2 {
		t.Fatal("releasing a view touched the owner's storage")
	}
	x.Release()
	x.Release() // idempotent
	if x.Size() != 0 {
		t.Fatalf("released tensor still has %d elements", x.Size())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reading a released tensor did not panic")
			}
		}()
		_ = x.At(0, 0)
	}()
	// The race runtime's sync.Pool drops puts at random.
	if n := EmptyFreeList(); n != 1 && !raceEnabled {
		t.Fatalf("free list holds %d buffers after one release, want 1", n)
	}
}

// TestFreeListConcurrent shares the free list between goroutines the way
// concurrent client replicas and parallel.For chunks do: every New must
// come back zero-filled however the buffers were dirtied and released.
func TestFreeListConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := New(1 + (g*37+i)%300)
				for j, v := range x.Data() {
					if v != 0 {
						t.Errorf("New element %d = %v, want 0", j, v)
						return
					}
				}
				x.Fill(float64(g + 1))
				x.Release()
			}
		}(g)
	}
	wg.Wait()
}
