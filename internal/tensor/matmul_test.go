package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The tests in this file pin the repo's kernel determinism contract: every
// matmul entry point must give, bit for bit, what a naive reference loop in
// this file gives, at one worker and at the machine's full width. The
// register-tiled kernels group outputs into tiles and rows into chunks; that
// may reorder which independent elements are computed when, never how any
// one element accumulates:
//
//   - MatMul, MatMulAdd, MatMulT1 and BatchMatMul add a[i][p]·b[p][j] onto
//     the destination for p ascending and skip every a[i][p] == 0;
//   - MatMulT2 and MatVec sum a[i][p]·b[j][p] from +0 for p ascending with
//     no skip.
//
// On finite operands without −0 the skip never changes a result, so the
// operands here plant the values it does change: ±0 (whole rows of them),
// ±Inf and NaN (0·Inf is NaN, so a skip that goes missing, or one that
// appears where there is none, turns a result into NaN or out of it), and
// ±1e300, whose products overflow to ±Inf.

// randOperand draws a (rows, cols) matrix of N(0,1) values with +0 or −0 at
// about one element in eight, every third row (from row 1) all ±0, a few
// ±Inf, NaN and ±1e300 values, and +Inf as the last element.
func randOperand(rng *rand.Rand, rows, cols int) *Tensor {
	t := RandN(rng, 1, rows, cols)
	d := t.Data()
	negZero := math.Copysign(0, -1)
	for i := range d {
		if rng.Intn(8) == 0 || (i/cols)%3 == 1 {
			d[i] = 0
			if rng.Intn(2) == 0 {
				d[i] = negZero
			}
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	for s := 0; s < 1+len(d)/97; s++ {
		d[rng.Intn(len(d))] = specials[rng.Intn(len(specials))]
	}
	// An Inf in the last row and column meets the zero rows of the other
	// operand in the last output column, which is a tile remainder
	// whenever n is not a multiple of 4.
	d[len(d)-1] = math.Inf(1)
	return t
}

// refAxpy is the reference for the skipping kernels: c[i][j] += a(i,p)·b[p][j]
// for p ascending, skipping a(i,p) == 0. a is read through a function so
// the same loop serves a and its transpose.
func refAxpy(c []float64, a func(i, p int) float64, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for p := 0; p < k; p++ {
				if av := a(i, p); av != 0 {
					s += av * b[p*n+j]
				}
			}
			c[i*n+j] = s
		}
	}
}

// refDot is the reference for the dot kernels: c[i][j] = Σ a[i][p]·b[j][p]
// from +0 for p ascending, no skip.
func refDot(c, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = s
		}
	}
}

// rowMajor reads a (rows, cols) row-major matrix.
func rowMajor(d []float64, cols int) func(i, p int) float64 {
	return func(i, p int) float64 { return d[i*cols+p] }
}

// requireBitIdentical fails unless got and want hold exactly the same bit
// patterns ("==" would conflate −0 with +0). The one exception is NaN
// against NaN: which NaN operand's payload an addition keeps depends on the
// operand order the compiler picks for the add instruction, which no source
// loop controls, so the contract covers whether a result is NaN, not its
// payload.
func requireBitIdentical(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: size mismatch: got %d elements, want %d", name, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
			t.Fatalf("%s: element %d differs bitwise: got %v (%#x), want %v (%#x)",
				name, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
}

// serialAndParallel runs f once with helper fan-out disabled (GOMAXPROCS=1
// is the Workers=1 configuration: internal/parallel caps each For call at
// the live GOMAXPROCS) and once at the machine's full width, and hands both
// results to check.
func serialAndParallel(t *testing.T, f func() *Tensor, check func(name string, got *Tensor)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	serial := f()
	runtime.GOMAXPROCS(prev)
	check("workers=1", serial)
	check("workers=max", f())
}

// kernelShapes cover the degenerate 1×1×1, odd m, k and n below one tile,
// widths around and well past 128 with every remainder mod 4, and training
// shapes of the mini-scale models (conv forward, input and weight gradients
// of the 3-channel stem and of deeper layers, a dense layer).
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{17, 33, 128},
	{4, 9, 129},
	{5, 21, 165},
	{2, 16, 256},
	{7, 11, 309},
	{4, 27, 256},
	{27, 4, 256},
	{4, 256, 27},
	{32, 288, 4},
	{9, 32, 4},
	{96, 32, 32},
	{15, 72, 63},
}

func TestMatMulBlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.m, s.k)
		b := randOperand(rng, s.k, s.n)
		want := New(s.m, s.n)
		refAxpy(want.data, rowMajor(a.data, s.k), b.data, s.m, s.k, s.n)
		serialAndParallel(t, func() *Tensor { return MatMul(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

// TestMatMulAddOntoNegativeZero accumulates onto a nonzero destination
// holding −0s: where every product of an element is skipped, the −0 must
// survive (adding a +0 product would turn it into +0).
func TestMatMulAddOntoNegativeZero(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.m, s.k)
		b := randOperand(rng, s.k, s.n)
		dst := RandN(rng, 1, s.m, s.n)
		for i := range dst.data {
			if i%3 != 2 {
				dst.data[i] = math.Copysign(0, -1)
			}
		}
		want := dst.Clone()
		refAxpy(want.data, rowMajor(a.data, s.k), b.data, s.m, s.k, s.n)
		serialAndParallel(t, func() *Tensor {
			got := dst.Clone()
			MatMulAdd(got, a, b)
			return got
		}, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestMatMulT1BlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.k, s.m)
		b := randOperand(rng, s.k, s.n)
		want := New(s.m, s.n)
		refAxpy(want.data, func(i, p int) float64 { return a.data[p*s.m+i] }, b.data, s.m, s.k, s.n)
		serialAndParallel(t, func() *Tensor { return MatMulT1(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestMatMulT2BlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.m, s.k)
		b := randOperand(rng, s.n, s.k)
		want := New(s.m, s.n)
		refDot(want.data, a.data, b.data, s.m, s.k, s.n)
		serialAndParallel(t, func() *Tensor { return MatMulT2(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestBatchMatMulBlockedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, s := range kernelShapes {
		const bs = 3
		a := randOperand(rng, bs*s.m, s.k).Reshape(bs, s.m, s.k)
		b := randOperand(rng, bs*s.k, s.n).Reshape(bs, s.k, s.n)
		want := New(bs, s.m, s.n)
		for i := 0; i < bs; i++ {
			ai := a.data[i*s.m*s.k : (i+1)*s.m*s.k]
			refAxpy(want.data[i*s.m*s.n:(i+1)*s.m*s.n], rowMajor(ai, s.k), b.data[i*s.k*s.n:(i+1)*s.k*s.n], s.m, s.k, s.n)
		}
		serialAndParallel(t, func() *Tensor { return BatchMatMul(a, b) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

func TestMatVecParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, s := range kernelShapes {
		a := randOperand(rng, s.m, s.k)
		v := randOperand(rng, 1, s.k).Reshape(s.k)
		want := New(s.m)
		refDot(want.data, a.data, v.data, s.m, s.k, 1)
		serialAndParallel(t, func() *Tensor { return MatVec(a, v) }, func(name string, got *Tensor) {
			requireBitIdentical(t, name, got, want)
		})
	}
}

// TestDotKernelsStartAtPositiveZero pins the dot kernels' starting value:
// a sum of −0 products is +0 (it would be −0 from a −0 start), in full
// four-column groups and in the remainder.
func TestDotKernelsStartAtPositiveZero(t *testing.T) {
	const m, k, n = 3, 5, 7
	a := Full(math.Copysign(0, -1), m, k)
	b := Full(1, n, k)
	for name, got := range map[string]*Tensor{
		"MatMulT2": MatMulT2(a, b),
		"MatVec":   MatVec(a, Full(1, k)),
	} {
		for i, v := range got.Data() {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: element %d = %v (%#x), want +0", name, i, v, math.Float64bits(v))
			}
		}
	}
}

// TestMatMulSteadyStateAllocs pins MatMul's steady state: a call allocates
// only the output tensor and the bookkeeping of its internal/parallel
// fan-out — the kernels keep their tiles in locals and draw no scratch.
// GOMAXPROCS is pinned to 1 so helper-goroutine bookkeeping doesn't blur
// the count.
func TestMatMulSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are calibrated for uninstrumented builds")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(46))
	const m, k, n = 16, 32, 261
	a := randOperand(rng, m, k)
	b := randOperand(rng, k, n)
	MatMul(a, b) // warm the free list
	// Output tensor (struct, data slice, shape slice) + the parallel.For
	// closures.
	const maxAllocs = 6
	if allocs := testing.AllocsPerRun(20, func() { MatMul(a, b) }); allocs > maxAllocs {
		t.Errorf("MatMul steady state: %v allocs/op, want <= %d", allocs, maxAllocs)
	}
}
