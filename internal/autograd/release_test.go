package autograd

import (
	"math"
	"math/rand"
	"testing"

	"reffil/internal/tensor"
)

func TestReleaseFreesInteriorNodesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	w := randParam(rng, 3, 4)
	x := Constant(tensor.RandN(rng, 1, 2, 3))
	h := Tanh(MatMul(x, w))
	side := Sum(h) // a second root sharing h with the loss
	loss := Mean(Square(h))
	if err := Backward(loss); err != nil {
		t.Fatal(err)
	}
	wT, wGrad, xT := w.T.Clone(), w.Grad.Clone(), x.T.Clone()
	Release(loss, side, nil)
	Release(loss) // releasing again is a no-op

	if !w.T.EqualBits(wT) || !w.Grad.EqualBits(wGrad) || !x.T.EqualBits(xT) {
		t.Fatal("Release touched a leaf's storage or gradient")
	}
	for _, v := range []*Value{h, side, loss} {
		if v.T.Size() != 0 || (v.Grad != nil && v.Grad.Size() != 0) {
			t.Fatalf("%s node kept its storage after Release", v.Op())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a released node's T did not panic")
		}
	}()
	_ = h.T.At(0, 0)
}

func TestReleaseFreesBackwardScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := randParam(rng, 2, 3, 5, 5)
	w := randParam(rng, 4, 3, 3, 3)
	conv, err := Conv2D(x, w, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	logits := Reshape(conv, 2, 4*25)
	loss, err := SoftmaxCrossEntropy(logits, []int{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Backward(loss); err != nil {
		t.Fatal(err)
	}
	scratch := append(append([]*tensor.Tensor(nil), conv.scratch...), loss.scratch...)
	if len(scratch) != 3 {
		t.Fatalf("conv and CE hold %d scratch tensors, want 3 (two im2col, one softmax)", len(scratch))
	}
	Release(loss)
	for i, s := range scratch {
		if s.Size() != 0 {
			t.Fatalf("scratch tensor %d kept %d elements after Release", i, s.Size())
		}
	}
}

// TestFirstTouchGradientCanonicalizesNegativeZero pins the bits of a first
// gradient write: zero-fill then add gives +0 for a -0 contribution, and
// both accumulate paths (copy and adopted temporary) must keep that.
func TestFirstTouchGradientCanonicalizesNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// Scale's backward hands 1·(-0) = -0 to x as a temporary (sink).
	x := Param(tensor.FromSlice([]float64{2, 3}, 2))
	if err := Backward(Sum(Scale(x, negZero))); err != nil {
		t.Fatal(err)
	}
	// Reshape's backward passes a view of its gradient (accumulate), which
	// holds -0 here because the gradient is seeded directly.
	y := Param(tensor.FromSlice([]float64{2, 3}, 2))
	r := Reshape(y, 1, 2)
	r.Grad = tensor.FromSlice([]float64{negZero, negZero}, 1, 2)
	r.back()
	for name, g := range map[string]*tensor.Tensor{"sink": x.Grad, "accumulate": y.Grad} {
		for i, v := range g.Data() {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s path: gradient element %d has bits %#x, want +0", name, i, math.Float64bits(v))
			}
		}
	}
}
