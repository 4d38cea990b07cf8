// Package baselines implements the paper's seven comparison methods,
// adapted to federated domain-incremental learning exactly as §V describes:
//
//   - Finetune — plain FedAvg training, the lower bound hit hardest by
//     catastrophic forgetting.
//   - FedLwF — Learning without Forgetting: knowledge distillation from the
//     previous task's global model.
//   - FedEWC — Elastic Weight Consolidation: a Fisher-weighted quadratic
//     penalty anchoring parameters important to earlier tasks.
//   - FedL2P (± prompt pool) — Learning-to-Prompt with a single shared
//     prompt (pool deactivated, the paper's default fair comparison) or a
//     key-matched prompt pool (the † variants).
//   - FedDualPrompt (± prompt pool) — a shared General prompt plus Expert
//     prompts selected by key matching.
//
// All methods share the backbone of package model and run under the same
// federation engine, so differences in the tables come from the continual
// learning mechanism alone.
package baselines

import (
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/opt"
	"reffil/internal/tensor"
)

// TrainHyper bundles the local-SGD hyperparameters shared by all methods.
type TrainHyper struct {
	Momentum, WeightDecay, ClipNorm float64
}

// DefaultHyper mirrors the paper's SGD setup.
func DefaultHyper() TrainHyper {
	return TrainHyper{Momentum: 0.9, WeightDecay: 1e-4, ClipNorm: 5}
}

// localSGD runs the standard local-training loop: Epochs passes of
// shuffled minibatches, where lossFn builds the method's loss for a batch.
// Each step's tape is released once the optimizer has stepped, so the next
// step reuses its buffers; lossFn must release any tape it builds that the
// loss does not reach.
func localSGD(ctx *fl.LocalContext, params []nn.Param, hy TrainHyper,
	lossFn func(b data.Batch) (*autograd.Value, error)) error {
	sgd, err := opt.NewSGD(params, ctx.LR, hy.Momentum, hy.WeightDecay)
	if err != nil {
		return err
	}
	for epoch := 0; epoch < ctx.Epochs; epoch++ {
		batches, err := data.Batches(ctx.Data, ctx.BatchSize, ctx.Rng)
		if err != nil {
			return err
		}
		for _, b := range batches {
			sgd.ZeroGrad()
			loss, err := lossFn(b)
			if err != nil {
				return err
			}
			if err := autograd.Backward(loss); err != nil {
				return err
			}
			if hy.ClipNorm > 0 {
				opt.ClipGradNorm(params, hy.ClipNorm)
			}
			sgd.Step()
			autograd.Release(loss)
		}
	}
	return nil
}

// Finetune is the paper's lower-bound baseline: FedAvg with plain
// cross-entropy and no forgetting mitigation.
type Finetune struct {
	backbone *model.Backbone
	hyper    TrainHyper
}

// NewFinetune builds the baseline.
func NewFinetune(cfg model.Config, hy TrainHyper, rng *rand.Rand) (*Finetune, error) {
	b, err := model.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Finetune{backbone: b, hyper: hy}, nil
}

// Name implements fl.Algorithm.
func (f *Finetune) Name() string { return "Finetune" }

// Global implements fl.Algorithm.
func (f *Finetune) Global() nn.Module { return f.backbone }

// Spawn implements fl.Algorithm: an isolated replica of the backbone.
func (f *Finetune) Spawn() (fl.Algorithm, error) {
	return &Finetune{backbone: f.backbone.Clone(), hyper: f.hyper}, nil
}

// OnTaskStart implements fl.Algorithm.
func (f *Finetune) OnTaskStart(task int) error { return nil }

// OnTaskEnd implements fl.Algorithm.
func (f *Finetune) OnTaskEnd(task int, sample *data.Dataset) error { return nil }

// LocalTrain implements fl.Algorithm.
func (f *Finetune) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	nnCtx := &nn.Ctx{Train: true}
	err := localSGD(ctx, f.backbone.Params(), f.hyper, func(b data.Batch) (*autograd.Value, error) {
		logits, err := f.backbone.Forward(nnCtx, autograd.Constant(b.X), nil)
		if err != nil {
			return nil, err
		}
		return autograd.SoftmaxCrossEntropy(logits, b.Y)
	})
	return nil, err
}

// ServerRound implements fl.Algorithm.
func (f *Finetune) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict implements fl.Algorithm.
func (f *Finetune) Predict(x *tensor.Tensor) ([]int, error) {
	return f.backbone.Predict(x, nil)
}

var _ fl.Algorithm = (*Finetune)(nil)
