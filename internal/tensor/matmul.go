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

// blockJ is the output-column tile width of the blocked matmul kernels. The
// j axis is the only one that may be tiled: every output element's value is
// a sum over the shared dimension p, and the repo's determinism contract
// (bit-identical results at any worker count and any tiling) requires that
// per-element summation order to stay exactly the serial kernel's ascending
// p. Tiling j (or i) only reorders *which* independent elements are computed
// when — never how any one element accumulates — so it is always safe.
// Tiling p would split each element's sum into per-tile partials and change
// the floating-point result, so no kernel here does it.
//
// 128 columns keep one B panel row (128×8 B = one KiB) prefetch-friendly and
// a whole k-row panel inside L2 for the k values these models use, while
// staying wide enough that the per-tile loop overhead is noise.
const blockJ = 128

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
	grain := parallel.GrainForCost(2*k*n, minChunkOps)
	if n <= blockJ {
		// One tile: packing would be a pure extra pass over B, and the
		// unpacked kernel already streams B rows sequentially.
		parallel.For(m, grain, func(lo, hi int) {
			matmulRows(c, a.data, b.data, lo, hi, k, n)
		})
		return
	}
	pb := getBuf(k * n)
	panels := *pb
	packPanels(panels, b.data, k, n)
	parallel.For(m, grain, func(lo, hi int) {
		matmulRowsBlocked(c, a.data, panels, lo, hi, k, n)
	})
	putBuf(pb)
}

// packPanels copies B (k,n) into j-tile-major panels: tile t holds columns
// [t*blockJ, t*blockJ+tw) as k contiguous rows of width tw at panel offset
// t*blockJ*k. Only the last tile may be ragged, so the offsets line up and
// the whole packing is exactly k*n floats. Tiles are independent, so the
// copy fans out over internal/parallel.
func packPanels(panels, b []float64, k, n int) {
	nt := (n + blockJ - 1) / blockJ
	parallel.For(nt, parallel.GrainForCost(k*blockJ, minChunkOps), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			packPanel(panels, b, k, n, t)
		}
	})
}

// packPanel packs tile t of B (k,n); see packPanels for the layout.
func packPanel(panels, b []float64, k, n, t int) {
	j0 := t * blockJ
	tw := n - j0
	if tw > blockJ {
		tw = blockJ
	}
	dst := panels[j0*k : j0*k+k*tw]
	for p := 0; p < k; p++ {
		copy(dst[p*tw:(p+1)*tw], b[p*n+j0:p*n+j0+tw])
	}
}

// matmulRows accumulates rows [lo,hi) of A(m,k) * B(k,n) into c (zeroed
// for a plain product). The loop order (i,p,j) streams B rows sequentially, which is
// the cache friendly order for row-major storage. Each output row depends
// only on its own A row and all of B, so disjoint row ranges are safe to
// compute concurrently and the per-element accumulation order is identical
// at any chunking.
func matmulRows(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j := range bp {
				ci[j] += av * bp[j]
			}
		}
	}
}

// matmulRowsBlocked is matmulRows over B pre-packed into blockJ-wide panels
// (see packPanels). Processing one panel across all rows of the chunk keeps
// the panel (k*blockJ floats) resident in cache instead of re-streaming all
// of B once per output row. The inner accumulation is unchanged: for every
// output element, p ascends 0..k-1 with the same zero-skip as matmulRows, so
// results are bit-identical to the unblocked kernel.
func matmulRowsBlocked(c, a, panels []float64, lo, hi, k, n int) {
	for j0 := 0; j0 < n; j0 += blockJ {
		tw := n - j0
		if tw > blockJ {
			tw = blockJ
		}
		panel := panels[j0*k : j0*k+k*tw]
		for i := lo; i < hi; i++ {
			ci := c[i*n+j0 : i*n+j0+tw]
			ai := a[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := ai[p]
				//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
				if av == 0 {
					continue
				}
				bp := panel[p*tw : (p+1)*tw]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

// matmulKernel computes the full C = A(m,k) * B(k,n) serially into c, which
// must be zeroed, using panels as packing scratch when the width calls for
// the blocked kernel (batched callers parallelize over the batch axis
// instead and pass a reusable panel buffer).
func matmulKernel(c, a, b []float64, m, k, n int, panels []float64) {
	if n <= blockJ {
		matmulRows(c, a, b, 0, m, k, n)
		return
	}
	for t := 0; t < (n+blockJ-1)/blockJ; t++ {
		packPanel(panels, b, k, n, t)
	}
	matmulRowsBlocked(c, a, panels, 0, m, k, n)
}

// MatMulT1 computes aᵀ·b for a (k,m) and b (k,n) -> (m,n) without
// materializing the transpose. Output rows are partitioned across workers
// and the output columns are tiled blockJ wide; within a tile the
// shared-dimension loop stays outermost so B rows stream sequentially, the
// output tile stays cache-resident across the whole p sweep, and the
// accumulation order per element matches the serial kernel exactly.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT1 needs 2-D operands, got %v and %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT1 inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	parallel.For(m, parallel.GrainForCost(2*k*n, minChunkOps), func(lo, hi int) {
		for j0 := 0; j0 < n; j0 += blockJ {
			tw := n - j0
			if tw > blockJ {
				tw = blockJ
			}
			for p := 0; p < k; p++ {
				ap := a.data[p*m : (p+1)*m]
				bp := b.data[p*n+j0 : p*n+j0+tw]
				for i := lo; i < hi; i++ {
					av := ap[i]
					//fedvet:ignore floatbits exact zero-skip: the guard is a pure function of the operand bits, so skipping zero contributions is deterministic
					if av == 0 {
						continue
					}
					ci := out.data[i*n+j0 : i*n+j0+tw]
					for j, bv := range bp {
						ci[j] += av * bv
					}
				}
			}
		}
	})
	return out
}

// MatMulT2 computes a·bᵀ for a (m,k) and b (n,k) -> (m,n) without
// materializing the transpose. The output columns are tiled blockJ wide so
// the tile's B rows (tw*k floats) stay cache-resident across every A row of
// the chunk; each element is still one uninterrupted dot product over p.
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
		for j0 := 0; j0 < n; j0 += blockJ {
			j1 := j0 + blockJ
			if j1 > n {
				j1 = n
			}
			for i := lo; i < hi; i++ {
				ai := a.data[i*k : (i+1)*k]
				ci := out.data[i*n : (i+1)*n]
				for j := j0; j < j1; j++ {
					bj := b.data[j*k : (j+1)*k]
					s := 0.0
					for p := range ai {
						s += ai[p] * bj[p]
					}
					ci[j] = s
				}
			}
		}
	})
	return out
}

// BatchMatMul multiplies two 3-D tensors batch-wise:
// (B,m,k) x (B,k,n) -> (B,m,n). Batch elements are independent, so the
// batch axis is the parallel axis; each chunk reuses one pooled panel buffer
// across its batch elements for the blocked per-element kernel.
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
	blocked := n > blockJ
	parallel.For(bs, parallel.GrainForCost(2*m*k*n, minChunkOps), func(lo, hi int) {
		var panels []float64
		var pb *[]float64
		if blocked {
			pb = getBuf(k * n)
			panels = *pb
		}
		for i := lo; i < hi; i++ {
			matmulKernel(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], m, k, n, panels)
		}
		if blocked {
			putBuf(pb)
		}
	})
	return out
}

// MatVec multiplies a 2-D tensor (m,k) by a vector (k,) -> (m,). Output
// rows are independent dot products, so the row axis fans out over
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
		for i := lo; i < hi; i++ {
			ai := a.data[i*k : (i+1)*k]
			s := 0.0
			for p := range ai {
				s += ai[p] * v.data[p]
			}
			out.data[i] = s
		}
	})
	return out
}
