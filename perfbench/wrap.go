package main

import (
	"sync/atomic"
	"time"

	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// counters are the work tallies every wrapped instance of one federation
// adds to, coordinator and workers alike.
type counters struct {
	samples atomic.Int64 // shard size × epochs, summed over jobs
	jobs    atomic.Int64
}

// hooks is what one wrapped algorithm instance reports to: the
// coordinator's instance and each TCP worker's instance get their own, and
// replicas spawned from an instance share it.
type hooks struct {
	// rec receives spans; nil keeps the wrapper to counters and round marks.
	rec *recorder
	// track names the trace track ("coordinator", "worker0", ...).
	track string
	// clientTids puts each client's replica spans on its own trace row,
	// for pools that train several clients at once.
	clientTids bool
	count      *counters
	// onInstall, when set, runs on the engine goroutine as ServerRound
	// returns, with the return time: the mark that a round was installed.
	onInstall func(at time.Time)
	// round is the packed (task, round) the instance's jobs belong to, for
	// span attribution; set by whoever hands the instance its jobs.
	round atomic.Int64
}

func packRound(task, round int) int64 { return int64(task)<<32 | int64(uint32(round)) }

func unpackRound(v int64) (task, round int) { return int(v >> 32), int(int32(v)) }

func (h *hooks) tid(client int) int64 {
	if h.clientTids {
		return int64(client) + 1
	}
	return 0
}

// algWrap forwards every fl.Algorithm call to the wrapped method, timing
// the call when tracing. It implements fl.WireStater and fl.UploadCoder
// only through the wireAlg/uploadAlg/wireUploadAlg variants that typed
// picks, so the engine, executor and pipeline see exactly the optional
// interfaces the wrapped method has and take the same branches.
type algWrap struct {
	inner fl.Algorithm
	h     *hooks
	// Replicas only: the spawn span, recorded with the job it served, and
	// the state the replica started from when the job is sampled for replay.
	spawnStart, spawnEnd time.Time
	base                 map[string]*tensor.Tensor
}

// wrap returns alg behind a forwarding wrapper reporting to h.
func wrap(alg fl.Algorithm, h *hooks) fl.Algorithm {
	return (&algWrap{inner: alg, h: h}).typed()
}

func (w *algWrap) typed() fl.Algorithm {
	_, ws := w.inner.(fl.WireStater)
	_, uc := w.inner.(fl.UploadCoder)
	switch {
	case ws && uc:
		return wireUploadAlg{w}
	case ws:
		return wireAlg{w}
	case uc:
		return uploadAlg{w}
	}
	return w
}

func (w *algWrap) Name() string { return w.inner.Name() }

func (w *algWrap) Global() nn.Module { return w.inner.Global() }

func (w *algWrap) Spawn() (fl.Algorithm, error) {
	start := time.Now()
	rep, err := w.inner.Spawn()
	if err != nil {
		return nil, err
	}
	r := &algWrap{inner: rep, h: w.h}
	if rec := w.h.rec; rec != nil {
		r.spawnStart, r.spawnEnd = start, time.Now()
		if rec.samplePair() {
			r.base = nn.StateDict(rep.Global())
		}
	}
	return r.typed(), nil
}

func (w *algWrap) OnTaskStart(task int) error {
	start := time.Now()
	err := w.inner.OnTaskStart(task)
	w.h.rec.add(span{name: "core.task_start", track: w.h.track, start: start, end: time.Now(), task: task, round: -1, job: -1})
	return err
}

func (w *algWrap) OnTaskEnd(task int, sample *data.Dataset) error {
	start := time.Now()
	err := w.inner.OnTaskEnd(task, sample)
	w.h.rec.add(span{name: "core.task_end", track: w.h.track, start: start, end: time.Now(), task: task, round: -1, job: -1})
	return err
}

func (w *algWrap) LocalTrain(ctx *fl.LocalContext) (fl.Upload, error) {
	n := int64(ctx.Data.Len() * ctx.Epochs)
	w.h.count.jobs.Add(1)
	w.h.count.samples.Add(n)
	rec := w.h.rec
	if rec == nil {
		return w.inner.LocalTrain(ctx)
	}
	start := time.Now()
	up, err := w.inner.LocalTrain(ctx)
	end := time.Now()
	_, round := unpackRound(w.h.round.Load())
	tid := w.h.tid(ctx.ClientID)
	if !w.spawnStart.IsZero() {
		rec.add(span{name: "core.spawn", track: w.h.track, tid: tid, start: w.spawnStart, end: w.spawnEnd, task: ctx.Task, round: round, job: ctx.ClientID})
	}
	rec.add(span{name: "core.local_train", track: w.h.track, tid: tid, start: start, end: end, task: ctx.Task, round: round, job: ctx.ClientID, n: n})
	if w.base != nil && err == nil {
		rec.addPair(w.base, nn.StateDict(w.inner.Global()))
		w.base = nil
	}
	return up, err
}

func (w *algWrap) ServerRound(task, round int, uploads []fl.Upload) error {
	start := time.Now()
	err := w.inner.ServerRound(task, round, uploads)
	end := time.Now()
	w.h.rec.add(span{name: "core.server_round", track: w.h.track, start: start, end: end, task: task, round: round, job: -1})
	if w.h.onInstall != nil {
		w.h.onInstall(end)
	}
	return err
}

func (w *algWrap) Predict(x *tensor.Tensor) ([]int, error) {
	start := time.Now()
	pred, err := w.inner.Predict(x)
	w.h.rec.add(span{name: "core.predict", track: w.h.track, start: start, end: time.Now(), task: -1, round: -1, job: -1, n: int64(x.Dim(0))})
	return pred, err
}

// The optional interfaces, reachable only through the typed variants.

func (w *algWrap) encodeWireState() ([]byte, error) {
	start := time.Now()
	b, err := w.inner.(fl.WireStater).EncodeWireState()
	w.h.rec.add(span{name: "core.wire_state_encode", track: w.h.track, start: start, end: time.Now(), task: -1, round: -1, job: -1, n: int64(len(b))})
	return b, err
}

func (w *algWrap) loadWireState(b []byte) error {
	start := time.Now()
	err := w.inner.(fl.WireStater).LoadWireState(b)
	w.h.rec.add(span{name: "core.wire_state_load", track: w.h.track, start: start, end: time.Now(), task: -1, round: -1, job: -1, n: int64(len(b))})
	return err
}

func (w *algWrap) encodeUpload(up fl.Upload) ([]byte, error) {
	start := time.Now()
	b, err := w.inner.(fl.UploadCoder).EncodeUpload(up)
	w.h.rec.add(span{name: "core.upload_encode", track: w.h.track, start: start, end: time.Now(), task: -1, round: -1, job: -1, n: int64(len(b))})
	return b, err
}

func (w *algWrap) decodeUpload(b []byte) (fl.Upload, error) {
	start := time.Now()
	up, err := w.inner.(fl.UploadCoder).DecodeUpload(b)
	// The pipeline decodes under its own lock, so decodes never overlap.
	w.h.rec.add(span{name: "core.upload_decode", track: w.h.track, tid: 2, start: start, end: time.Now(), task: -1, round: -1, job: -1, n: int64(len(b))})
	return up, err
}

type wireAlg struct{ *algWrap }

func (a wireAlg) EncodeWireState() ([]byte, error) { return a.encodeWireState() }
func (a wireAlg) LoadWireState(b []byte) error     { return a.loadWireState(b) }

type uploadAlg struct{ *algWrap }

func (a uploadAlg) EncodeUpload(up fl.Upload) ([]byte, error) { return a.encodeUpload(up) }
func (a uploadAlg) DecodeUpload(b []byte) (fl.Upload, error)  { return a.decodeUpload(b) }

type wireUploadAlg struct{ *algWrap }

func (a wireUploadAlg) EncodeWireState() ([]byte, error)          { return a.encodeWireState() }
func (a wireUploadAlg) LoadWireState(b []byte) error              { return a.loadWireState(b) }
func (a wireUploadAlg) EncodeUpload(up fl.Upload) ([]byte, error) { return a.encodeUpload(up) }
func (a wireUploadAlg) DecodeUpload(b []byte) (fl.Upload, error)  { return a.decodeUpload(b) }

var (
	_ fl.WireStater  = wireAlg{}
	_ fl.UploadCoder = uploadAlg{}
	_ fl.WireStater  = wireUploadAlg{}
	_ fl.UploadCoder = wireUploadAlg{}
)
