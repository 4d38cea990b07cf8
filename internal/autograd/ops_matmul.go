package autograd

import (
	"reffil/internal/parallel"
	"reffil/internal/tensor"
)

// MatMul multiplies 2-D values: (m,k) x (k,n) -> (m,n).
func MatMul(a, b *Value) *Value {
	out := tensor.MatMul(a.T, b.T)
	node := newNode(out, "matmul", nil, a, b)
	node.back = func() {
		if a.requiresGrad {
			// dA = dC · Bᵀ
			sink(a, tensor.MatMulT2(node.Grad, b.T))
		}
		if b.requiresGrad {
			// dB = Aᵀ · dC
			sink(b, tensor.MatMulT1(a.T, node.Grad))
		}
	}
	return node
}

// BatchMatMul multiplies 3-D values batch-wise: (B,m,k) x (B,k,n) -> (B,m,n).
func BatchMatMul(a, b *Value) *Value {
	out := tensor.BatchMatMul(a.T, b.T)
	node := newNode(out, "batchMatmul", nil, a, b)
	node.back = func() {
		bs := a.T.Dim(0)
		m, k := a.T.Dim(1), a.T.Dim(2)
		n := b.T.Dim(2)
		grain := parallel.GrainForCost(2*m*k*n, parallel.DefaultChunkOps)
		if a.requiresGrad {
			ga := tensor.New(a.T.Shape()...)
			parallel.For(bs, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dC := sliceBatch(node.Grad, i, m, n)
					bi := sliceBatch(b.T, i, k, n)
					gi := tensor.MatMulT2(dC, bi)
					copy(ga.Data()[i*m*k:(i+1)*m*k], gi.Data())
					gi.Release()
				}
			})
			sink(a, ga)
		}
		if b.requiresGrad {
			gb := tensor.New(b.T.Shape()...)
			parallel.For(bs, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dC := sliceBatch(node.Grad, i, m, n)
					ai := sliceBatch(a.T, i, m, k)
					gi := tensor.MatMulT1(ai, dC)
					copy(gb.Data()[i*k*n:(i+1)*k*n], gi.Data())
					gi.Release()
				}
			})
			sink(b, gb)
		}
	}
	return node
}

// sliceBatch views batch element i of a (B,r,c) tensor as an (r,c) tensor
// without copying.
func sliceBatch(t *tensor.Tensor, i, r, c int) *tensor.Tensor {
	return tensor.FromSlice(t.Data()[i*r*c:(i+1)*r*c], r, c)
}

// Linear computes x·W + b for x (B,in), W (in,out) and optional bias b (out).
// It is a fused convenience wrapper used by every dense layer.
func Linear(x, w, b *Value) *Value {
	out := MatMul(x, w)
	if b == nil {
		return out
	}
	return Add(out, b)
}
