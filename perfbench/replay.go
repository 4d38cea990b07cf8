package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"reffil/internal/autograd"
	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/fl/wire"
	"reffil/internal/model"
	"reffil/internal/nn"
	"reffil/internal/opt"
)

// replayReps repeats each replayed call; the median repetition is kept.
const replayReps = 3

// timeIt returns the median wall time of reps calls of f, and f's first
// error.
func timeIt(reps int, f func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = ms(time.Since(start))
	}
	return median(ts), nil
}

func patchBytes(p *wire.Patch) int {
	n := len(p.Dense) + len(p.Packed)
	for _, s := range p.Sparse {
		n += len(s.Key) + 16*len(s.Idx)
	}
	return n
}

// replay re-runs single layers on the traced run's own captured inputs,
// after the run: the wire codec on (broadcast base, trained replica) pairs
// and on consecutive installed globals, the FedAvg fold, state loading,
// shard materialization and generation, checkpoint loading, and one
// backbone SGD step at the workload's batch size.
func replay(w *workload, seed int64, rec *recorder, ckptPath, dir string) (map[string]float64, error) {
	out := make(map[string]float64)
	family, domains, err := newFamily()
	if err != nil {
		return nil, err
	}
	cfg := w.config(seed)
	if len(rec.pairs) == 0 || len(rec.globals) < 2 {
		return nil, fmt.Errorf("replay: captured %d state pairs and %d globals, need 1 and 2", len(rec.pairs), len(rec.globals))
	}

	// wire: upload patches, as a worker encodes and the coordinator decodes.
	var enc, dec, size []float64
	for _, pr := range rec.pairs {
		var p *wire.Patch
		te, err := timeIt(replayReps, func() (err error) { p, err = wire.Delta{}.Encode(pr[0], pr[1]); return err })
		if err != nil {
			return nil, err
		}
		td, err := timeIt(replayReps, func() error { _, err := wire.Decode(pr[0], p); return err })
		if err != nil {
			return nil, err
		}
		enc, dec, size = append(enc, te), append(dec, td), append(size, float64(patchBytes(p)))
	}
	out["wire.upload_encode_ms"] = mean(enc)
	out["wire.upload_decode_ms"] = mean(dec)
	out["wire.upload_patch_bytes"] = mean(size)

	// wire: broadcast frames between consecutive globals (the first frame
	// is a full snapshot and is not counted).
	encoder, err := wire.NewEncoder(wire.Delta{})
	if err != nil {
		return nil, err
	}
	var tracker wire.Tracker
	var frameMs, frameBytes []float64
	for i, g := range rec.globals {
		encoder.SetRound(g.dict, g.payload)
		start := time.Now()
		f, err := encoder.FrameFor(&tracker, true)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			frameMs = append(frameMs, ms(time.Since(start)))
			frameBytes = append(frameBytes, float64(patchBytes(&f.Patch)+len(f.Payload)))
		}
		if err := encoder.Ack(&tracker, f); err != nil {
			return nil, err
		}
	}
	out["wire.broadcast_frame_ms"] = mean(frameMs)
	out["wire.broadcast_frame_bytes"] = mean(frameBytes)

	// fl: the streaming FedAvg fold over a round's worth of trained states.
	var foldMs, finMs []float64
	for rep := 0; rep < replayReps; rep++ {
		for lo := 0; lo < len(rec.pairs); lo += cfg.SelectPerRound {
			hi := min(lo+cfg.SelectPerRound, len(rec.pairs))
			acc := fl.NewAccumulator()
			start := time.Now()
			for i, pr := range rec.pairs[lo:hi] {
				if err := acc.Fold(pr[1], float64(i+1)); err != nil {
					return nil, err
				}
			}
			foldMs = append(foldMs, ms(time.Since(start))/float64(hi-lo))
			start = time.Now()
			if _, err := acc.Finalize(); err != nil {
				return nil, err
			}
			finMs = append(finMs, ms(time.Since(start)))
		}
	}
	out["fl.fold_ms_per_job"] = median(foldMs)
	out["fl.finalize_ms_per_round"] = median(finMs)

	// nn: installing a global into a model.
	alg, err := newMethod(family, seed)
	if err != nil {
		return nil, err
	}
	var loadMs []float64
	for _, g := range rec.globals {
		t, err := timeIt(replayReps, func() error { return nn.LoadStateDict(alg.Global(), g.dict) })
		if err != nil {
			return nil, err
		}
		loadMs = append(loadMs, t)
	}
	out["nn.load_state_ms"] = mean(loadMs)

	// data: the jobs' shards, rebuilt from their specs, and task generation.
	specs := make([]fl.ShardSpec, 0, len(rec.specs))
	for s := range rec.specs {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool {
		a, b := specs[i], specs[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Index < b.Index
	})
	var matMs []float64
	var shard *data.Dataset // the largest, for the SGD step
	for _, s := range specs {
		var ds *data.Dataset
		t, err := timeIt(1, func() (err error) { ds, err = s.Materialize(); return err })
		if err != nil {
			return nil, err
		}
		matMs = append(matMs, t)
		if shard == nil || ds.Len() > shard.Len() {
			shard = ds
		}
	}
	out["data.materialize_ms_per_shard"] = mean(matMs)
	var genMs []float64
	var train *data.Dataset
	for t, d := range domains {
		tm, err := timeIt(replayReps, func() (err error) {
			train, _, err = family.Generate(d, cfg.TrainPerDomain, cfg.TestPerDomain, fl.TaskSeed(seed, t))
			return err
		})
		if err != nil {
			return nil, err
		}
		genMs = append(genMs, tm)
	}
	out["data.generate_ms_per_task"] = mean(genMs)

	// checkpoint: loading the run's last snapshot; workloads that write
	// none get one of the run's final global first.
	if ckptPath == "" {
		ckptPath = filepath.Join(dir, "replay.ckpt")
		last := rec.globals[len(rec.globals)-1]
		st := &checkpoint.RunState{Method: "reffil", Seed: seed, Global: last.dict, Payload: last.payload, HasPayload: last.payload != nil}
		if err := checkpoint.SaveRunStateFile(ckptPath, st); err != nil {
			return nil, err
		}
	}
	if out["checkpoint.load_ms"], err = timeIt(replayReps, func() error { _, err := checkpoint.LoadRunStateFile(ckptPath); return err }); err != nil {
		return nil, err
	}

	if shard == nil || shard.Len() == 0 {
		shard = train
	}
	if err := sgdStep(family, shard, cfg, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// sgdStep times forward, backward and optimizer step of the bare backbone
// on one full batch of a job's shard, and counts heap allocations per step.
func sgdStep(family *data.Family, ds *data.Dataset, cfg fl.Config, seed int64, out map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	bb, err := model.New(model.DefaultConfig(family.Classes), rng)
	if err != nil {
		return err
	}
	batches, err := data.Batches(ds, cfg.BatchSize, rng)
	if err != nil {
		return err
	}
	b := batches[0]
	sgd, err := opt.NewSGD(bb.Params(), cfg.LR, 0.9, 1e-4)
	if err != nil {
		return err
	}
	step := func() (fwd, bwd, upd time.Duration, err error) {
		sgd.ZeroGrad()
		t0 := time.Now()
		logits, err := bb.Forward(&nn.Ctx{Train: true}, autograd.Constant(b.X), nil)
		if err != nil {
			return
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, b.Y)
		if err != nil {
			return
		}
		t1 := time.Now()
		if err = autograd.Backward(loss); err != nil {
			return
		}
		t2 := time.Now()
		sgd.Step()
		return t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
	}
	const warm, steps = 3, 20
	for i := 0; i < warm; i++ {
		if _, _, _, err := step(); err != nil {
			return err
		}
	}
	var f, bk, u []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < steps; i++ {
		fwd, bwd, upd, err := step()
		if err != nil {
			return err
		}
		f, bk, u = append(f, ms(fwd)), append(bk, ms(bwd)), append(u, ms(upd))
	}
	runtime.ReadMemStats(&m1)
	out["model.forward_ms_per_batch"] = median(f)
	out["autograd.backward_ms_per_batch"] = median(bk)
	out["opt.step_ms_per_batch"] = median(u)
	out["autograd.allocs_per_step"] = float64(m1.Mallocs-m0.Mallocs) / steps
	return nil
}
