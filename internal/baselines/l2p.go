package baselines

import (
	"math/rand"

	"reffil/internal/autograd"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// FedL2P adapts Learning-to-Prompt (Wang et al., CVPR 2022) to FDIL.
//
// With the prompt pool deactivated (the paper's default fair comparison) a
// single shared prompt is prepended to every sequence. With the pool
// reactivated (the † variants in the tables) each sample selects its TopN
// closest prompts by key-query cosine matching, and a key-pull loss draws
// selected keys toward their queries.
type FedL2P struct {
	backbone *model.Backbone
	hyper    TrainHyper

	// UsePool distinguishes FedL2P† from FedL2P.
	usePool bool
	// shared is the pool-free prompt (1, Lp, d).
	shared *autograd.Value
	pool   *promptPool
	// TopN is the per-sample selection count with the pool enabled.
	TopN int
	// KeyLambda scales the key-pull loss.
	KeyLambda float64
	lp        int
}

// L2PConfig sizes the prompt machinery.
type L2PConfig struct {
	// PromptLen is the token length of one prompt.
	PromptLen int
	// PoolSize is the number of pool slots (pool variant only).
	PoolSize int
	// TopN is the per-sample selection count (pool variant only).
	TopN int
	// UsePool enables the † behaviour.
	UsePool bool
}

// DefaultL2PConfig mirrors common L2P settings at mini scale.
func DefaultL2PConfig(usePool bool) L2PConfig {
	return L2PConfig{PromptLen: 4, PoolSize: 8, TopN: 2, UsePool: usePool}
}

// NewFedL2P builds the baseline.
func NewFedL2P(cfg model.Config, pc L2PConfig, hy TrainHyper, rng *rand.Rand) (*FedL2P, error) {
	b, err := model.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	f := &FedL2P{
		backbone:  b,
		hyper:     hy,
		usePool:   pc.UsePool,
		TopN:      pc.TopN,
		KeyLambda: 0.5,
		lp:        pc.PromptLen,
	}
	if pc.UsePool {
		pool, err := newPromptPool("l2p", rng, pc.PoolSize, pc.PromptLen, cfg.TokenDim)
		if err != nil {
			return nil, err
		}
		f.pool = pool
	} else {
		f.shared = autograd.Param(tensor.RandN(rng, 0.02, 1, pc.PromptLen, cfg.TokenDim))
	}
	return f, nil
}

// Name implements fl.Algorithm.
func (f *FedL2P) Name() string {
	if f.usePool {
		return "FedL2P+pool"
	}
	return "FedL2P"
}

// Global implements fl.Algorithm.
func (f *FedL2P) Global() nn.Module { return f }

// Spawn implements fl.Algorithm: backbone and prompt state (shared prompt
// or pool) are all trainable, so the replica deep-copies everything.
func (f *FedL2P) Spawn() (fl.Algorithm, error) {
	rep := &FedL2P{
		backbone:  f.backbone.Clone(),
		hyper:     f.hyper,
		usePool:   f.usePool,
		TopN:      f.TopN,
		KeyLambda: f.KeyLambda,
		lp:        f.lp,
	}
	if f.usePool {
		rep.pool = f.pool.clone()
	} else {
		rep.shared = f.shared.CloneLeaf()
	}
	return rep, nil
}

// Params implements nn.Module: backbone plus prompt state.
func (f *FedL2P) Params() []nn.Param {
	ps := f.backbone.Params()
	if f.usePool {
		ps = append(ps, f.pool.params()...)
	} else {
		ps = append(ps, nn.Param{Name: "l2p.shared", Value: f.shared})
	}
	return ps
}

// Buffers implements nn.Module.
func (f *FedL2P) Buffers() []nn.Buffer { return f.backbone.Buffers() }

// OnTaskStart implements fl.Algorithm.
func (f *FedL2P) OnTaskStart(task int) error { return nil }

// OnTaskEnd implements fl.Algorithm.
func (f *FedL2P) OnTaskEnd(task int, sample *data.Dataset) error { return nil }

// promptsFor builds the prompt tokens for a batch's token sequence and, in
// pool mode, the key-pull loss term (nil otherwise).
func (f *FedL2P) promptsFor(tokens *autograd.Value) (*autograd.Value, *autograd.Value, error) {
	bs := tokens.T.Dim(0)
	if !f.usePool {
		return autograd.BroadcastBatch(f.shared, bs), nil, nil
	}
	queries := meanPatchQuery(tokens)
	selected := f.pool.selectTop(queries, f.TopN)
	prompts, keysSel, _ := f.pool.gather(selected)
	pull, err := f.pool.keyPullLoss(keysSel, queries, selected)
	if err != nil {
		return nil, nil, err
	}
	return prompts, pull, nil
}

// LocalTrain implements fl.Algorithm.
func (f *FedL2P) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	nnCtx := &nn.Ctx{Train: true}
	err := localSGD(ctx, f.Params(), f.hyper, func(b data.Batch) (*autograd.Value, error) {
		tokens, err := f.backbone.Tokens(nnCtx, autograd.Constant(b.X))
		if err != nil {
			return nil, err
		}
		prompts, pull, err := f.promptsFor(tokens)
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
		if pull != nil {
			loss = autograd.Add(loss, autograd.Scale(pull, f.KeyLambda))
		}
		return loss, nil
	})
	return nil, err
}

// ServerRound implements fl.Algorithm.
func (f *FedL2P) ServerRound(task, round int, uploads []fl.Upload) error { return nil }

// Predict implements fl.Algorithm: the same prompt machinery runs at
// inference (key matching needs no task id).
func (f *FedL2P) Predict(x *tensor.Tensor) ([]int, error) {
	nnCtx := &nn.Ctx{Train: false}
	tokens, err := f.backbone.Tokens(nnCtx, autograd.Constant(x))
	if err != nil {
		return nil, err
	}
	prompts, pull, err := f.promptsFor(tokens)
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

var _ fl.Algorithm = (*FedL2P)(nil)
var _ nn.Module = (*FedL2P)(nil)
