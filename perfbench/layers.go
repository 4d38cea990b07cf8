package main

import (
	"strings"
	"time"
)

// replayed names the per-layer metrics measured by replay rather than
// live.
var replayed = map[string]bool{
	"wire.upload_encode_ms": true, "wire.upload_decode_ms": true, "wire.upload_patch_bytes": true,
	"wire.broadcast_frame_ms": true, "wire.broadcast_frame_bytes": true,
	"fl.fold_ms_per_job": true, "fl.finalize_ms_per_round": true,
	"nn.load_state_ms": true, "checkpoint.load_ms": true,
	"data.materialize_ms_per_shard": true, "data.generate_ms_per_task": true,
	"model.forward_ms_per_batch": true, "autograd.backward_ms_per_batch": true,
	"opt.step_ms_per_batch": true, "autograd.allocs_per_step": true,
}

// perLayer derives the per-layer metrics of a traced window from its spans,
// the pipeline's round statistics and the replayed figures.
func (r *report) perLayer(w *workload, win *window, rec *recorder, spans []span, rp map[string]float64) {
	l := make(map[string]float64, len(perLayer))
	r.Layer = l
	for k, v := range rp {
		l[k] = v
	}
	d := r.Detail

	by := make(map[string][]span)
	for _, s := range spans {
		by[s.name] = append(by[s.name], s)
	}
	total := func(name string) (time.Duration, int64) {
		var t time.Duration
		var n int64
		for _, s := range by[name] {
			t += s.dur()
			n += s.n
		}
		return t, n
	}
	perCall := func(name string) float64 {
		t, _ := total(name)
		return ratio(ms(t), float64(len(by[name])))
	}

	// Round time: the installed-round intervals of the window; the shares
	// below are fractions of their sum.
	var ivs []interval
	var roundTime time.Duration
	feds, rounds := 0, 0
	for _, f := range win.feds {
		if f.end.IsZero() || len(f.marks) == 0 {
			continue
		}
		feds++
		rounds += f.rounds
		prev := f.start
		for _, m := range f.marks {
			ivs = append(ivs, interval{prev, m})
			prev = m
		}
		roundTime += prev.Sub(f.start)
	}
	share := func(t time.Duration) float64 { return ratio(float64(t), float64(roundTime)) }
	cover := func(ss []span) time.Duration {
		u := union(ss)
		var c time.Duration
		for _, iv := range ivs {
			c += covered(u, iv.a, iv.b)
		}
		return c
	}
	d["round_ms_mean"] = ratio(ms(roundTime), float64(len(ivs)))

	// core: the method, through the forwarding wrapper.
	l["core.local_train_ms_per_job"] = perCall("core.local_train")
	l["core.local_train_share"] = share(cover(by["core.local_train"]))
	l["core.spawn_ms_per_job"] = perCall("core.spawn")
	l["core.server_round_ms"] = perCall("core.server_round")
	pt, pn := total("core.predict")
	l["core.predict_ms_per_sample"] = ratio(ms(pt), float64(pn))
	ts, _ := total("core.task_start")
	te, _ := total("core.task_end")
	l["core.task_hooks_ms"] = ratio(ms(ts+te), float64(tasks*feds))
	for _, c := range []struct{ span, metric, detail string }{
		{"core.upload_encode", "core.upload_encode_share", "core.upload_encode_ms_per_job"},
		{"core.upload_decode", "core.upload_decode_share", "core.upload_decode_ms_per_job"},
		{"core.wire_state_encode", "core.wire_state_encode_share", "core.wire_state_encode_ms"},
		{"core.wire_state_load", "core.wire_state_load_share", "core.wire_state_load_ms"},
	} {
		if len(by[c.span]) == 0 {
			r.na(c.metric, "the in-process runner never encodes for the wire")
			continue
		}
		t, _ := total(c.span)
		l[c.metric] = share(t)
		d[c.detail] = perCall(c.span)
	}
	if n := len(by["core.upload_encode"]); n > 0 {
		_, b := total("core.upload_encode")
		l["core.upload_bytes_per_job"] = float64(b) / float64(n)
	} else {
		r.na("core.upload_bytes_per_job", "the in-process runner never encodes for the wire")
	}
	if n := len(by["core.wire_state_encode"]); n > 0 {
		_, b := total("core.wire_state_encode")
		l["core.wire_state_bytes"] = float64(b) / float64(n)
	} else {
		r.na("core.wire_state_bytes", "the in-process runner never encodes for the wire")
	}

	// transport and fl.async: TCP workloads only.
	if w.tcp {
		r.transport(win, rec, by, share, float64(rounds), float64(feds))
	} else {
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "transport.") || strings.HasPrefix(m.name, "fl.async_") {
				r.na(m.name, "the in-process runner has no transport or async runner")
			}
		}
	}

	// fl: round time no recorded span covers — engine, fold and install.
	all := cover(spans)
	l["fl.untraced_ms_per_round"] = ratio(ms(roundTime-all), float64(len(ivs)))
	d["traced_coverage"] = share(all)

	// checkpoint: tcp-sync only.
	if saves := by["checkpoint.save"]; len(saves) > 0 {
		t, _ := total("checkpoint.save")
		l["checkpoint.save_share"] = share(t)
		d["checkpoint.save_ms_per_round"] = ratio(ms(t), float64(rounds))
		var b float64
		for _, f := range win.feds {
			b += float64(f.ckptBytes)
		}
		l["checkpoint.bytes"] = ratio(b, float64(len(win.feds)))
	} else {
		r.na("checkpoint.save_share", "the workload writes no checkpoints")
		r.na("checkpoint.bytes", "the workload writes no checkpoints")
	}
}

// transport fills the transport and async metrics from the pipeline's
// round statistics, the workers' busy and ack-send spans and the runs'
// socket counters.
func (r *report) transport(win *window, rec *recorder, by map[string][]span, share func(time.Duration) float64, rounds, feds float64) {
	l, d := r.Layer, r.Detail
	busy := make(map[roundKey]time.Duration) // slowest worker's busy time per round
	for _, s := range by["transport.worker_busy"] {
		k := roundKey{s.fed, s.task, s.round}
		busy[k] = max(busy[k], s.dur())
	}
	rec.mu.Lock()
	var dispatch, lastAck, overlap, busyT, wait time.Duration
	var extra int64
	n := float64(len(rec.stats))
	for k, rs := range rec.stats {
		dispatch += time.Duration(rs.DispatchNanos)
		lastAck += time.Duration(rs.LastAckNanos)
		overlap += time.Duration(rs.OverlapNanos)
		busyT += busy[k]
		wait += max(0, time.Duration(rs.LastAckNanos)-busy[k])
		extra += int64(rs.Attempts - 1)
	}
	rec.mu.Unlock()
	ackSend := by["transport.ack_send"]
	var send time.Duration
	for _, s := range ackSend {
		send += s.dur()
	}
	l["transport.dispatch_share"] = share(dispatch)
	l["transport.last_ack_share"] = share(lastAck)
	l["transport.worker_busy_share"] = share(busyT)
	l["transport.ack_send_share"] = share(send)
	l["transport.ack_wait_share"] = share(wait)
	l["transport.overlap_ratio"] = ratio(float64(overlap), float64(lastAck))
	d["transport.dispatch_ms_per_round"] = ratio(ms(dispatch), n)
	d["transport.last_ack_ms_per_round"] = ratio(ms(lastAck), n)
	d["transport.worker_busy_ms_per_round"] = ratio(ms(busyT), n)
	d["transport.ack_wait_ms_per_round"] = ratio(ms(wait), n)
	d["transport.ack_send_ms_per_job"] = ratio(ms(send), float64(len(ackSend)))

	var wire, bc, up, full, delta, idle, fallbacks, pendingMax, dropped float64
	for _, f := range win.feds {
		wire += float64(f.wireBytes)
		bc += float64(f.stats.BroadcastBytes)
		up += float64(f.stats.UploadBytes)
		full += float64(f.stats.FullFrames)
		delta += float64(f.stats.DeltaFrames)
		idle += float64(f.stats.IdleFrames)
		fallbacks += float64(f.stats.Fallbacks)
		pendingMax = max(pendingMax, float64(f.pendingMax))
		dropped += float64(f.dropped)
	}
	l["transport.wire_bytes_per_round"] = ratio(wire, rounds)
	l["transport.broadcast_bytes_per_round"] = ratio(bc, rounds)
	l["transport.upload_bytes_per_round"] = ratio(up, rounds)
	l["transport.frames_full"] = ratio(full, feds)
	l["transport.frames_delta"] = ratio(delta, feds)
	l["transport.frames_idle"] = ratio(idle, feds)
	l["transport.fallbacks"] = ratio(fallbacks, feds)
	l["transport.extra_attempts"] = ratio(float64(extra), feds)
	l["fl.async_pending_max"] = pendingMax
	l["fl.async_dropped"] = ratio(dropped, feds)
}
