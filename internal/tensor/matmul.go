package tensor

import (
	"fmt"

	"reffil/internal/parallel"
)

// minChunkOps is the scalar-operation budget below which a matmul chunk is
// not worth a goroutine: kernels fall back to the calling goroutine for
// anything smaller, so the tiny matmuls that dominate mini-scale training do
// not pay fan-out overhead.
const minChunkOps = parallel.DefaultChunkOps

// Every product in this file is computed by one of two inner kernels:
// rowKernel (c[i][j] += a[i][p]·b[p][j], behind MatMul, MatMulAdd,
// MatMulT1 and BatchMatMul) and dotKernel (c[i][j] = Σ a[i][p]·b[j][p],
// behind MatMulT2 and MatVec). Both hold a small tile of outputs in local
// accumulators across the whole shared dimension instead of reloading and
// storing c for every p, and both keep the repo's determinism contract:
// every output element is one float64 summed over p in ascending order, so
// results are bit-identical at any tiling, any row chunking and any worker
// count. Only the output axes (i, j) are ever tiled; splitting p would
// reassociate the sums and change the bits.

// MatMul multiplies two 2-D tensors: (m,k) x (k,n) -> (m,n).
func MatMul(a, b *Tensor) *Tensor {
	m, n := matMulDims("MatMul", a, b)
	out := New(m, n)
	matMulAdd(out.data, a, b)
	return out
}

// MatMulAdd accumulates a·b into dst: dst (m,n) += a (m,k) x b (k,n). Every
// element adds its products in MatMul's order, so on a zero-filled dst the
// result is MatMul's bit for bit; callers use it to write a product straight
// into a slice of a larger tensor.
func MatMulAdd(dst, a, b *Tensor) {
	m, n := matMulDims("MatMulAdd", a, b)
	if dst.NDim() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAdd destination %v, want [%d %d]", dst.shape, m, n))
	}
	matMulAdd(dst.data, a, b)
}

// matMulDims validates the operands of a 2-D product and returns (m, n).
func matMulDims(op string, a, b *Tensor) (m, n int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v and %v", op, a.shape, b.shape))
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a.shape, b.shape))
	}
	return a.shape[0], b.shape[1]
}

// matMulAdd accumulates a·b into c, fanning the rows out over
// internal/parallel.
func matMulAdd(c []float64, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	parallel.For(m, parallel.GrainForCost(2*k*n, minChunkOps), func(lo, hi int) {
		rowKernel(c, a.data, b.data, lo, hi, k, n)
	})
}

// rowKernel accumulates rows [lo,hi) of A(m,k)·B(k,n) into c:
// c[i][j] += a[i][p]·b[p][j] for p ascending, skipping every a[i][p] == 0
// (the skip is a pure function of the operand bits; it changes a result only
// where the skipped product would be NaN, or where c holds −0). Outputs are
// computed in 2-row × 4-column register tiles: per p, two A values and four
// B values feed eight independent accumulators. Rows and columns left over
// from full tiles run through narrower copies of the same loop. Each output
// row depends only on its own A row and all of B, so disjoint row ranges
// are safe to compute concurrently.
func rowKernel(c, a, b []float64, lo, hi, k, n int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a1 = a1[:len(a0)] // lets the compiler drop a1[p]'s bounds check
		c0 := c[i*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			c00, c01, c02, c03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			c10, c11, c12, c13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			off := j
			for p, x0 := range a0 {
				x1 := a1[p]
				bp := b[off : off+4 : off+4]
				off += n
				//fedvet:ignore floatbits exact zero-skip, a pure function of the operand bits
				if x0 != 0 {
					c00 += x0 * bp[0]
					c01 += x0 * bp[1]
					c02 += x0 * bp[2]
					c03 += x0 * bp[3]
				}
				//fedvet:ignore floatbits exact zero-skip, a pure function of the operand bits
				if x1 != 0 {
					c10 += x1 * bp[0]
					c11 += x1 * bp[1]
					c12 += x1 * bp[2]
					c13 += x1 * bp[3]
				}
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = c00, c01, c02, c03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			s0, s1 := c0[j], c1[j]
			for p, x0 := range a0 {
				bv := b[p*n+j]
				//fedvet:ignore floatbits exact zero-skip, a pure function of the operand bits
				if x0 != 0 {
					s0 += x0 * bv
				}
				//fedvet:ignore floatbits exact zero-skip, a pure function of the operand bits
				if x1 := a1[p]; x1 != 0 {
					s1 += x1 * bv
				}
			}
			c0[j], c1[j] = s0, s1
		}
	}
	if i < hi {
		a0 := a[i*k : (i+1)*k]
		c0 := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			c00, c01, c02, c03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			for p, x0 := range a0 {
				//fedvet:ignore floatbits exact zero-skip, a pure function of the operand bits
				if x0 == 0 {
					continue
				}
				bp := b[p*n+j : p*n+j+4 : p*n+j+4]
				c00 += x0 * bp[0]
				c01 += x0 * bp[1]
				c02 += x0 * bp[2]
				c03 += x0 * bp[3]
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = c00, c01, c02, c03
		}
		for ; j < n; j++ {
			s0 := c0[j]
			for p, x0 := range a0 {
				//fedvet:ignore floatbits exact zero-skip, a pure function of the operand bits
				if x0 != 0 {
					s0 += x0 * b[p*n+j]
				}
			}
			c0[j] = s0
		}
	}
}

// dotKernel writes rows [lo,hi) of A(m,k)·Bᵀ for B (n,k) into c:
// c[i][j] = Σ a[i][p]·b[j][p], each sum starting at +0 and running over p
// in ascending order with no skip. Per A row, four B rows feed four
// independent accumulators, so the four dot products overlap instead of
// forming one dependent add chain; columns beyond the last full group of
// four run one at a time.
func dotKernel(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			// Same lengths as ai, so the loop needs no bounds checks.
			b0, b1, b2, b3 = b0[:len(ai)], b1[:len(ai)], b2[:len(ai)], b3[:len(ai)]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for p, x := range ai {
				s0 += x * b0[p]
				s1 += x * b1[p]
				s2 += x * b2[p]
				s3 += x * b3[p]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			bj = bj[:len(ai)]
			s := 0.0
			for p, x := range ai {
				s += x * bj[p]
			}
			ci[j] = s
		}
	}
}

// MatMulT1 computes aᵀ·b for a (k,m) and b (k,n) -> (m,n). It is exactly
// MatMul(Transpose(a), b) — the same products summed in the same order —
// and is implemented as that, with the transpose on free-list storage.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT1 needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT1 inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	at := Transpose(a)
	out := MatMul(at, b)
	at.Release()
	return out
}

// MatMulT2 computes a·bᵀ for a (m,k) and b (n,k) -> (m,n) without
// materializing the transpose: every element is one dot product of an A
// row with a B row (see dotKernel).
func MatMulT2(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT2 needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := empty(m, n)
	parallel.For(m, parallel.GrainForCost(2*k*n, minChunkOps), func(lo, hi int) {
		dotKernel(out.data, a.data, b.data, lo, hi, k, n)
	})
	return out
}

// BatchMatMul multiplies two 3-D tensors batch-wise:
// (B,m,k) x (B,k,n) -> (B,m,n). Batch elements are independent, so the
// batch axis is the parallel axis and each element is one serial rowKernel
// call.
func BatchMatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 3 || b.NDim() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMul needs 3-D operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: BatchMatMul batch mismatch %v x %v", a.shape, b.shape))
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: BatchMatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	n := b.shape[2]
	out := New(bs, m, n)
	parallel.For(bs, parallel.GrainForCost(2*m*k*n, minChunkOps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowKernel(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
		}
	})
	return out
}

// MatVec multiplies a 2-D tensor (m,k) by a vector (k,) -> (m,): the
// vector is the single B row of a dotKernel product, so every output is one
// dot product summed from +0 in ascending order. Output rows fan out over
// internal/parallel like the other kernels.
func MatVec(a, v *Tensor) *Tensor {
	if a.NDim() != 2 || v.NDim() != 1 {
		panic(fmt.Sprintf("tensor: MatVec needs (2-D, 1-D), got %v and %v", a.shape, v.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if v.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v x %v", a.shape, v.shape))
	}
	out := empty(m)
	parallel.For(m, parallel.GrainForCost(2*k, minChunkOps), func(lo, hi int) {
		dotKernel(out.data, a.data, v.data, lo, hi, k, 1)
	})
	return out
}
