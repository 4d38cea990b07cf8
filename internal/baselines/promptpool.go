package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// promptPool is the shared machinery of L2P-style methods: a table of
// prompt slots with learnable keys, selected per sample by cosine matching
// between a query feature and the keys.
type promptPool struct {
	name string
	// pool rows are flattened (lp*d) prompt token blocks.
	pool *autograd.Value
	// keys rows are d-dimensional matching keys.
	keys  *autograd.Value
	slots int
	lp    int
	dim   int
}

func newPromptPool(name string, rng *rand.Rand, slots, lp, dim int) (*promptPool, error) {
	if slots <= 0 || lp <= 0 || dim <= 0 {
		return nil, fmt.Errorf("baselines: prompt pool dims must be positive: slots=%d lp=%d d=%d", slots, lp, dim)
	}
	return &promptPool{
		name:  name,
		pool:  autograd.Param(tensor.RandN(rng, 0.02, slots, lp*dim)),
		keys:  autograd.Param(tensor.RandN(rng, 0.02, slots, dim)),
		slots: slots,
		lp:    lp,
		dim:   dim,
	}, nil
}

// clone returns a deep copy sharing no tensors with p, for per-client
// replicas of pool-based methods.
func (p *promptPool) clone() *promptPool {
	return &promptPool{
		name:  p.name,
		pool:  p.pool.CloneLeaf(),
		keys:  p.keys.CloneLeaf(),
		slots: p.slots,
		lp:    p.lp,
		dim:   p.dim,
	}
}

// meanPatchQuery computes the per-sample query feature: the mean of the
// patch tokens (excluding CLS), detached from the graph as in L2P, where
// the query comes from a frozen feature path.
func meanPatchQuery(tokens *autograd.Value) *tensor.Tensor {
	patches := tensor.Narrow(tokens.T, 1, 1, tokens.T.Dim(1))
	q := tensor.MeanAxis(patches, 1, false)
	patches.Release()
	return q
}

// selectTop returns, per query row, the topN slot indices by cosine
// similarity.
func (p *promptPool) selectTop(queries *tensor.Tensor, topN int) [][]int {
	bs, d := queries.Dim(0), queries.Dim(1)
	if topN > p.slots {
		topN = p.slots
	}
	out := make([][]int, bs)
	keyNorm := make([]float64, p.slots)
	for s := 0; s < p.slots; s++ {
		row := p.keys.T.Data()[s*d : (s+1)*d]
		n := 0.0
		for _, v := range row {
			n += v * v
		}
		keyNorm[s] = math.Max(math.Sqrt(n), 1e-12)
	}
	for i := 0; i < bs; i++ {
		q := queries.Data()[i*d : (i+1)*d]
		qn := 0.0
		for _, v := range q {
			qn += v * v
		}
		qn = math.Max(math.Sqrt(qn), 1e-12)
		type cand struct {
			idx int
			sim float64
		}
		cands := make([]cand, p.slots)
		for s := 0; s < p.slots; s++ {
			row := p.keys.T.Data()[s*d : (s+1)*d]
			dot := 0.0
			for t, v := range row {
				dot += v * q[t]
			}
			cands[s] = cand{idx: s, sim: dot / (qn * keyNorm[s])}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].sim > cands[b].sim })
		ids := make([]int, topN)
		for j := 0; j < topN; j++ {
			ids[j] = cands[j].idx
		}
		out[i] = ids
	}
	return out
}

// gather assembles per-sample prompt tokens (B, topN*lp, d) from the
// selected slot ids and returns the selected keys (B*topN, d) for the
// key-pull loss. Gradients flow into both pool and keys.
func (p *promptPool) gather(selected [][]int) (prompts, keysSel *autograd.Value, flatIDs []int) {
	bs := len(selected)
	topN := len(selected[0])
	flatIDs = make([]int, 0, bs*topN)
	for _, ids := range selected {
		flatIDs = append(flatIDs, ids...)
	}
	rows := autograd.Embedding(p.pool, flatIDs) // (B*topN, lp*d)
	prompts = autograd.Reshape(rows, bs, topN*p.lp, p.dim)
	keysSel = autograd.Embedding(p.keys, flatIDs)
	return prompts, keysSel, flatIDs
}

// keyPullLoss pulls the selected keys toward their queries:
// mean(1 - cos(key, query)) over all selections.
func (p *promptPool) keyPullLoss(keysSel *autograd.Value, queries *tensor.Tensor, selected [][]int) (*autograd.Value, error) {
	topN := len(selected[0])
	bs := len(selected)
	d := queries.Dim(1)
	rep := tensor.New(bs*topN, d)
	for i := 0; i < bs; i++ {
		q := queries.Data()[i*d : (i+1)*d]
		for j := 0; j < topN; j++ {
			copy(rep.Data()[(i*topN+j)*d:(i*topN+j+1)*d], q)
		}
	}
	sims, err := autograd.CosineSimPairs(keysSel, rep)
	if err != nil {
		return nil, err
	}
	return autograd.AddScalar(autograd.Neg(autograd.Mean(sims)), 1), nil
}

// params exposes the pool's trainable state with a name prefix.
func (p *promptPool) params() []nn.Param {
	return []nn.Param{
		{Name: p.name + ".pool", Value: p.pool},
		{Name: p.name + ".keys", Value: p.keys},
	}
}
