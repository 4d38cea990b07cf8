// Package autograd implements reverse-mode automatic differentiation over
// tensors. A computation builds a dynamic tape of Value nodes; calling
// Backward on a scalar root propagates gradients to every reachable leaf
// that requires them.
//
// The op set is exactly what the RefFiL reproduction needs: broadcast
// arithmetic, matrix products, convolution, pooling, normalization layers,
// attention building blocks, fused classification/distillation/contrastive
// losses, and embedding lookups. Every op's backward pass is validated
// against finite differences in the package tests (see GradCheck).
//
// A tape's storage is recycled explicitly: once a training step has read
// everything it needs from its tape, Release hands every interior node's
// tensors back to the tensor free list for the next step to reuse.
package autograd

import (
	"fmt"

	"reffil/internal/tensor"
)

// Value is a node in the autograd tape: a tensor plus the bookkeeping needed
// to backpropagate through the operation that produced it.
type Value struct {
	// T holds the node's forward result.
	T *tensor.Tensor
	// Grad accumulates dLoss/dT during Backward. It is nil until first
	// needed; use EnsureGrad to materialize it.
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Value
	// back propagates this node's Grad into its parents' Grads.
	back func()
	op   string
	// scratch holds the tensors back reads besides T and Grad (im2col
	// columns, normalized activations, softmax probabilities); Release
	// frees them with the node.
	scratch []*tensor.Tensor
	// released marks a node whose storage Release has handed back.
	released bool
}

// NewLeaf wraps a tensor as a tape leaf. Pass requiresGrad=true for
// trainable parameters and false for data.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{T: t, requiresGrad: requiresGrad, op: "leaf"}
}

// Param is shorthand for a trainable leaf.
func Param(t *tensor.Tensor) *Value { return NewLeaf(t, true) }

// Constant is shorthand for a non-trainable leaf.
func Constant(t *tensor.Tensor) *Value { return NewLeaf(t, false) }

// RequiresGrad reports whether gradients flow into this node.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// CloneLeaf returns a fresh leaf holding a deep copy of the value's tensor,
// preserving trainability. The clone shares no storage with the original and
// carries no gradient or tape history — it is the building block for the
// per-client model replicas of the federated engine's clone contract.
func (v *Value) CloneLeaf() *Value { return NewLeaf(v.T.Clone(), v.requiresGrad) }

// Shape returns the shape of the node's tensor.
func (v *Value) Shape() []int { return v.T.Shape() }

// Op returns the name of the operation that produced this node.
func (v *Value) Op() string { return v.op }

// EnsureGrad materializes and returns the gradient tensor.
func (v *Value) EnsureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.T.Shape()...)
	}
	return v.Grad
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// newNode constructs an interior tape node. The node requires grad if any
// parent does; back is only invoked during Backward when it does.
func newNode(t *tensor.Tensor, op string, back func(), parents ...*Value) *Value {
	req := false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			req = true
			break
		}
	}
	v := &Value{T: t, requiresGrad: req, parents: parents, op: op}
	if req {
		v.back = back
	}
	return v
}

// accumulate adds g into p.Grad when p participates in backprop; g is only
// read. On p's first touch the gradient is a fresh buffer holding g[i] + 0,
// written in one pass: exactly the bits of a zero-filled buffer plus g
// (IEEE addition commutes, so a -0 element becomes +0 either way), without
// the clearing pass.
func accumulate(p *Value, g *tensor.Tensor) {
	if p == nil || !p.requiresGrad {
		return
	}
	if p.Grad == nil {
		p.Grad = tensor.AddScalar(g, 0)
		return
	}
	p.Grad.AddInPlace(g)
}

// sink is accumulate for a backward temporary g that no one else holds: it
// consumes g. On p's first touch g itself becomes the gradient after the
// in-place 0 + g[i] pass that gives accumulate's bits; otherwise g is added
// and released.
func sink(p *Value, g *tensor.Tensor) {
	if p != nil && p.requiresGrad && p.Grad == nil && g.SameShape(p.T) {
		d := g.Data()
		for i, v := range d {
			d[i] = 0 + v
		}
		p.Grad = g
		return
	}
	accumulate(p, g)
	g.Release()
}

// Release hands the storage of every interior node reachable from the
// roots back to the tensor free list: each node's forward result T, its
// gradient Grad and the scratch its backward pass captured. Leaves
// (parameters and data) keep their storage and gradients. Call it once the
// step's last read of the tape is done, with every root whose nodes the
// step built (a node reachable from several roots is released once). Any
// later read of a released node's T or Grad panics.
func Release(roots ...*Value) {
	stack := append([]*Value(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil || n.released || n.op == "leaf" {
			continue
		}
		n.released = true
		n.T.Release()
		if n.Grad != nil {
			n.Grad.Release()
		}
		for _, s := range n.scratch {
			s.Release()
		}
		stack = append(stack, n.parents...)
		n.parents, n.back, n.scratch = nil, nil, nil
	}
}

// Backward runs reverse-mode differentiation from root, which must hold a
// single element (a scalar loss). Gradients accumulate into the Grad fields
// of all reachable nodes that require them; call ZeroGrad on parameters
// between steps.
func Backward(root *Value) error {
	if root.T.Size() != 1 {
		return fmt.Errorf("autograd: Backward root must be scalar, got shape %v", root.T.Shape())
	}
	if !root.requiresGrad {
		return fmt.Errorf("autograd: Backward root does not require grad (no trainable inputs)")
	}
	order := topoSort(root)
	root.EnsureGrad().Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
	return nil
}

// topoSort returns nodes reachable from root that require grad, in
// topological order (parents before children). Iterative DFS keeps deep
// tapes from overflowing the goroutine stack.
func topoSort(root *Value) []*Value {
	var order []*Value
	visited := make(map[*Value]bool)
	type frame struct {
		node *Value
		next int
	}
	stack := []frame{{node: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if p != nil && p.requiresGrad && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}
