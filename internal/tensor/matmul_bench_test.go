package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks behind BENCH_kernels.json. The matmul shapes are
// the products a mini-scale RefFiL client actually runs per image or batch:
// conv forward (O, C·kh·kw, OutH·OutW) through MatMul/MatMulAdd, the weight
// gradient through MatMulT2 and the input gradient through MatMulT1, plus
// the dense layers. Run them at -cpu 1, where none of them is split over
// goroutines, to price the inner kernels alone:
//
//	go test -run=NONE -bench . -benchtime 200x -cpu 1 -benchmem ./internal/tensor

// matmulBenchShapes lists the measured training shapes, (m, k, n) of the
// result, per entry point.
var matmulBenchShapes = []struct {
	op      string
	m, k, n int
}{
	{"MatMul", 4, 36, 256},
	{"MatMul", 4, 27, 256},
	{"MatMul", 32, 288, 4},
	{"MatMul", 16, 144, 16},
	{"MatMul", 8, 72, 64},
	{"MatMul", 96, 32, 32},
	{"T2", 4, 256, 36},
	{"T2", 32, 4, 288},
	{"T1", 36, 4, 256},
	{"T1", 288, 32, 4},
}

func BenchmarkMatMulShapes(b *testing.B) {
	for _, s := range matmulBenchShapes {
		rng := rand.New(rand.NewSource(9))
		var f func() *Tensor
		switch s.op {
		case "MatMul":
			x, y := RandN(rng, 1, s.m, s.k), RandN(rng, 1, s.k, s.n)
			f = func() *Tensor { return MatMul(x, y) }
		case "T2":
			x, y := RandN(rng, 1, s.m, s.k), RandN(rng, 1, s.n, s.k)
			f = func() *Tensor { return MatMulT2(x, y) }
		case "T1":
			x, y := RandN(rng, 1, s.k, s.m), RandN(rng, 1, s.k, s.n)
			f = func() *Tensor { return MatMulT1(x, y) }
		}
		b.Run(fmt.Sprintf("%s/%dx%dx%d", s.op, s.m, s.k, s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f().Release()
			}
		})
	}
}

func BenchmarkBatchMatMul(b *testing.B) {
	const bs, m, k, n = 8, 64, 96, 192
	rng := rand.New(rand.NewSource(12))
	x, y := RandN(rng, 1, bs, m, k), RandN(rng, 1, bs, k, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BatchMatMul(x, y).Release()
	}
}

func BenchmarkMatVec(b *testing.B) {
	const m, k = 512, 384
	rng := rand.New(rand.NewSource(13))
	x, v := RandN(rng, 1, m, k), RandN(rng, 1, k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatVec(x, v).Release()
	}
}
