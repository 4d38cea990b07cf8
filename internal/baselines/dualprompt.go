package baselines

import (
	"fmt"
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// FedDualPrompt adapts DualPrompt (Wang et al., ECCV 2022) to FDIL: a
// shared General prompt carries task-invariant instructions, while Expert
// prompts carry task-specific guidance. During training the Expert prompt
// of the sample's task is used (task identity is known while learning);
// at inference the Expert is selected by key-query cosine matching.
//
// The † variant replaces the one-Expert-per-task layout with a larger
// key-matched Expert pool, matching the paper's "prompt pool reactivated"
// comparison.
type FedDualPrompt struct {
	backbone *model.Backbone
	hyper    TrainHyper

	general *autograd.Value // (1, Lg, d)
	experts *promptPool
	usePool bool
	// maxTasks bounds task ids in the no-pool layout.
	maxTasks int
	// KeyLambda scales the key-pull loss.
	KeyLambda float64
}

// DualPromptConfig sizes the prompt machinery.
type DualPromptConfig struct {
	// GeneralLen and ExpertLen are the two prompt lengths.
	GeneralLen, ExpertLen int
	// MaxTasks sizes the Expert table when UsePool is false.
	MaxTasks int
	// PoolSize sizes the Expert pool when UsePool is true.
	PoolSize int
	// UsePool selects the † behaviour.
	UsePool bool
}

// DefaultDualPromptConfig mirrors DualPrompt's G/E split at mini scale.
func DefaultDualPromptConfig(maxTasks int, usePool bool) DualPromptConfig {
	return DualPromptConfig{GeneralLen: 2, ExpertLen: 3, MaxTasks: maxTasks, PoolSize: 8, UsePool: usePool}
}

// NewFedDualPrompt builds the baseline.
func NewFedDualPrompt(cfg model.Config, pc DualPromptConfig, hy TrainHyper, rng *rand.Rand) (*FedDualPrompt, error) {
	if !pc.UsePool && pc.MaxTasks <= 0 {
		return nil, fmt.Errorf("baselines: DualPrompt needs MaxTasks > 0 without a pool")
	}
	b, err := model.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	slots := pc.MaxTasks
	if pc.UsePool {
		slots = pc.PoolSize
	}
	experts, err := newPromptPool("dualprompt.e", rng, slots, pc.ExpertLen, cfg.TokenDim)
	if err != nil {
		return nil, err
	}
	return &FedDualPrompt{
		backbone:  b,
		hyper:     hy,
		general:   autograd.Param(tensor.RandN(rng, 0.02, 1, pc.GeneralLen, cfg.TokenDim)),
		experts:   experts,
		usePool:   pc.UsePool,
		maxTasks:  pc.MaxTasks,
		KeyLambda: 0.5,
	}, nil
}

// Name implements fl.Algorithm.
func (f *FedDualPrompt) Name() string {
	if f.usePool {
		return "FedDualPrompt+pool"
	}
	return "FedDualPrompt"
}

// Global implements fl.Algorithm.
func (f *FedDualPrompt) Global() nn.Module { return f }

// Spawn implements fl.Algorithm: the General prompt and Expert pool are
// trainable, so the replica deep-copies them along with the backbone.
func (f *FedDualPrompt) Spawn() (fl.Algorithm, error) {
	return &FedDualPrompt{
		backbone:  f.backbone.Clone(),
		hyper:     f.hyper,
		general:   f.general.CloneLeaf(),
		experts:   f.experts.clone(),
		usePool:   f.usePool,
		maxTasks:  f.maxTasks,
		KeyLambda: f.KeyLambda,
	}, nil
}

// Params implements nn.Module.
func (f *FedDualPrompt) Params() []nn.Param {
	ps := f.backbone.Params()
	ps = append(ps, nn.Param{Name: "dualprompt.g", Value: f.general})
	ps = append(ps, f.experts.params()...)
	return ps
}

// Buffers implements nn.Module.
func (f *FedDualPrompt) Buffers() []nn.Buffer { return f.backbone.Buffers() }

// OnTaskStart implements fl.Algorithm.
func (f *FedDualPrompt) OnTaskStart(task int) error {
	if !f.usePool && task >= f.maxTasks {
		return fmt.Errorf("baselines: task %d exceeds DualPrompt expert capacity %d", task, f.maxTasks)
	}
	return nil
}

// OnTaskEnd implements fl.Algorithm.
func (f *FedDualPrompt) OnTaskEnd(task int, sample *data.Dataset) error { return nil }

// assemble builds [general; expert] prompt tokens for a batch, plus the
// key-pull loss when keys participate.
func (f *FedDualPrompt) assemble(tokens *autograd.Value, taskIDs []int, train bool) (*autograd.Value, *autograd.Value, error) {
	bs := tokens.T.Dim(0)
	queries := meanPatchQuery(tokens)
	var selected [][]int
	if train && !f.usePool {
		// Task identity known during training: use the task's Expert.
		selected = make([][]int, bs)
		for i, id := range taskIDs {
			if id < 0 || id >= f.maxTasks {
				return nil, nil, fmt.Errorf("baselines: task id %d outside expert table [0,%d)", id, f.maxTasks)
			}
			selected[i] = []int{id}
		}
	} else {
		selected = f.experts.selectTop(queries, 1)
	}
	expert, keysSel, _ := f.experts.gather(selected)
	pull, err := f.experts.keyPullLoss(keysSel, queries, selected)
	if err != nil {
		return nil, nil, err
	}
	gen := autograd.BroadcastBatch(f.general, bs)
	return autograd.Concat(1, gen, expert), pull, nil
}

// LocalTrain implements fl.Algorithm.
func (f *FedDualPrompt) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	nnCtx := &nn.Ctx{Train: true}
	err := localSGD(ctx, f.Params(), f.hyper, func(b data.Batch) (*autograd.Value, error) {
		tokens, err := f.backbone.Tokens(nnCtx, autograd.Constant(b.X))
		if err != nil {
			return nil, err
		}
		prompts, pull, err := f.assemble(tokens, b.Task, true)
		if err != nil {
			return nil, err
		}
		seq, err := f.backbone.WithPrompts(tokens, prompts)
		if err != nil {
			return nil, err
		}
		logits, err := f.backbone.Head(seq)
		if err != nil {
			return nil, err
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
		if err != nil {
			return nil, err
		}
		return autograd.Add(loss, autograd.Scale(pull, f.KeyLambda)), nil
	})
	return nil, err
}

// ServerRound implements fl.Algorithm.
func (f *FedDualPrompt) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict implements fl.Algorithm.
func (f *FedDualPrompt) Predict(x *tensor.Tensor) ([]int, error) {
	nnCtx := &nn.Ctx{Train: false}
	tokens, err := f.backbone.Tokens(nnCtx, autograd.Constant(x))
	if err != nil {
		return nil, err
	}
	prompts, pull, err := f.assemble(tokens, nil, false)
	if err != nil {
		return nil, err
	}
	seq, err := f.backbone.WithPrompts(tokens, prompts)
	if err != nil {
		return nil, err
	}
	logits, err := f.backbone.Head(seq)
	if err != nil {
		return nil, err
	}
	pred := tensor.ArgmaxRows(logits.T)
	autograd.Release(logits, pull)
	return pred, nil
}

var _ fl.Algorithm = (*FedDualPrompt)(nil)
var _ nn.Module = (*FedDualPrompt)(nil)
