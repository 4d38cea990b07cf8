// Package opt provides the stochastic gradient descent optimizer used by
// all methods in the reproduction (the paper trains every method with SGD),
// plus learning-rate schedules and gradient clipping.
package opt

import (
	"fmt"
	"math"

	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// SGD implements stochastic gradient descent with optional momentum and
// weight decay over a module's parameters.
type SGD struct {
	params      []nn.Param
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    []*tensor.Tensor // lazily allocated per parameter
}

// NewSGD builds an optimizer over the given parameters.
func NewSGD(params []nn.Param, lr, momentum, weightDecay float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("opt: learning rate must be positive, got %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("opt: momentum must be in [0,1), got %v", momentum)
	}
	if weightDecay < 0 {
		return nil, fmt.Errorf("opt: weight decay must be non-negative, got %v", weightDecay)
	}
	return &SGD{
		params:      params,
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    make([]*tensor.Tensor, len(params)),
	}, nil
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// SetLR updates the learning rate (used by schedules).
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Step applies one update using the gradients accumulated on the parameters.
// Parameters with no gradient are skipped. The update is one fused pass per
// parameter that allocates nothing (after a parameter's first velocity) and
// keeps the per-element operation order of the textbook three-pass form:
//
//	g' = g + wd·w;  v = v·μ + g';  w += -lr·v   (w += -lr·g' without momentum)
func (s *SGD) Step() {
	for i, p := range s.params {
		if p.Value.Grad == nil {
			continue
		}
		w := p.Value.T.Data()
		g := p.Value.Grad.Data()
		wd, mu, step := s.weightDecay, s.momentum, -s.lr
		if mu > 0 {
			if s.velocity[i] == nil {
				s.velocity[i] = tensor.New(p.Value.T.Shape()...)
			}
			v := s.velocity[i].Data()
			for j := range w {
				gj := g[j]
				if wd > 0 {
					gj += wd * w[j]
				}
				// The explicit conversion rounds v·μ on its own, as the
				// separate scaling pass did, so it cannot fuse with the add.
				vj := float64(v[j]*mu) + gj
				v[j] = vj
				w[j] += step * vj
			}
			continue
		}
		for j := range w {
			gj := g[j]
			if wd > 0 {
				gj += wd * w[j]
			}
			w[j] += step * gj
		}
	}
}

// ZeroGrad clears gradients on all managed parameters.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.Value.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. Gradient explosion in early rounds
// of federated training otherwise derails small-batch BatchNorm models.
func ClipGradNorm(params []nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		n := p.Value.Grad.L2Norm()
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.Value.Grad != nil {
				p.Value.Grad.ScaleInPlace(scale)
			}
		}
	}
	return norm
}

// StepDecay returns a learning-rate schedule that multiplies the base rate
// by gamma every stepSize calls.
func StepDecay(base float64, stepSize int, gamma float64) func(step int) float64 {
	return func(step int) float64 {
		if stepSize <= 0 {
			return base
		}
		return base * math.Pow(gamma, float64(step/stepSize))
	}
}

// CosineDecay returns a cosine-annealed schedule from base to floor over
// total steps.
func CosineDecay(base, floor float64, total int) func(step int) float64 {
	return func(step int) float64 {
		if total <= 0 || step >= total {
			return floor
		}
		frac := float64(step) / float64(total)
		return floor + 0.5*(base-floor)*(1+math.Cos(math.Pi*frac))
	}
}
