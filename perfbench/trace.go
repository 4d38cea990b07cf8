package main

import (
	"sort"
	"sync"
	"time"

	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/telemetry"
	"reffil/internal/tensor"
)

// span is one timed call at a layer boundary, attributed to the federation,
// task, round and job (client) it served; -1 marks an unknown coordinate.
type span struct {
	name       string
	track      string
	tid        int64
	start, end time.Time
	fed        int
	task       int
	round      int
	job        int
	// n is the work the call did: samples, bytes or jobs, per span kind.
	n int64
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// roundKey identifies one round of one federation in the traced window.
type roundKey struct{ fed, task, round int }

// pairCap bounds the (base, trained) state pairs kept for the wire and fold
// replays, and globalCap the consecutive installed globals kept for the
// broadcast-frame replay: each dict is a full model state.
const (
	pairCap   = 8
	globalCap = 8
)

// capturedGlobal is one installed global model and its method wire state.
type capturedGlobal struct {
	dict    map[string]*tensor.Tensor
	payload []byte
}

// recorder keeps the traced run's spans, transport round statistics and
// replay inputs in memory; nothing is written until the run ends. All
// methods are safe on a nil recorder, which records nothing.
type recorder struct {
	mu    sync.Mutex
	fed   int
	spans []span
	// dispatchEnd is when each round's broadcasts were all on the wire
	// (Pipeline.OnDispatch); stats is each round's RoundStats (OnRound).
	dispatchEnd map[roundKey]time.Time
	stats       map[roundKey]transport.RoundStats
	// Replay inputs.
	pairEvery int
	spawns    int
	pairs     [][2]map[string]*tensor.Tensor
	globals   []capturedGlobal
	specs     map[fl.ShardSpec]bool
}

func newRecorder(pairEvery int) *recorder {
	return &recorder{
		pairEvery:   pairEvery,
		dispatchEnd: make(map[roundKey]time.Time),
		stats:       make(map[roundKey]transport.RoundStats),
		specs:       make(map[fl.ShardSpec]bool),
	}
}

// startFederation tags everything recorded from now on with federation i.
func (r *recorder) startFederation(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fed = i
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s.fed = r.fed
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// samplePair reports whether the job being spawned now should keep its
// starting and trained state for the replays: every pairEvery-th spawn,
// up to pairCap of them.
func (r *recorder) samplePair() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spawns++
	return len(r.pairs) < pairCap && (r.spawns-1)%r.pairEvery == 0
}

func (r *recorder) addPair(base, trained map[string]*tensor.Tensor) {
	r.mu.Lock()
	if len(r.pairs) < pairCap {
		r.pairs = append(r.pairs, [2]map[string]*tensor.Tensor{base, trained})
	}
	r.mu.Unlock()
}

// wantGlobal reports whether another installed global is still wanted:
// consecutive ones, so all from the first federation.
func (r *recorder) wantGlobal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fed == 0 && len(r.globals) < globalCap
}

func (r *recorder) addGlobal(g capturedGlobal) {
	r.mu.Lock()
	r.globals = append(r.globals, g)
	r.mu.Unlock()
}

func (r *recorder) addSpecs(specs []fl.JobSpec) {
	r.mu.Lock()
	for _, s := range specs {
		for _, sh := range s.Shards {
			r.specs[sh] = true
		}
	}
	r.mu.Unlock()
}

func (r *recorder) dispatched(task, round int, at time.Time) {
	r.mu.Lock()
	r.dispatchEnd[roundKey{r.fed, task, round}] = at
	r.mu.Unlock()
}

func (r *recorder) roundDone(rs transport.RoundStats) {
	r.mu.Lock()
	r.stats[roundKey{r.fed, rs.Task, rs.Round}] = rs
	r.mu.Unlock()
}

// transportSpans derives each round's dispatch span (frame building and
// sends) and collection span (dispatch start to last ack) from the
// pipeline's RoundStats and dispatch marks.
func (r *recorder) transportSpans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for k, rs := range r.stats {
		end, ok := r.dispatchEnd[k]
		if !ok {
			continue
		}
		start := end.Add(-time.Duration(rs.DispatchNanos))
		out = append(out,
			span{name: "transport.dispatch", track: "transport", start: start, end: end, fed: k.fed, task: k.task, round: k.round, job: -1},
			span{name: "transport.collect", track: "transport", tid: int64(k.round) + 1, start: start, end: start.Add(time.Duration(rs.LastAckNanos)), fed: k.fed, task: k.task, round: k.round, job: -1})
	}
	sortSpans(out)
	return out
}

func sortSpans(s []span) {
	sort.Slice(s, func(i, j int) bool {
		if !s[i].start.Equal(s[j].start) {
			return s[i].start.Before(s[j].start)
		}
		return s[i].name < s[j].name
	})
}

// allSpans returns the recorded and derived spans, sorted by start.
func (r *recorder) allSpans() []span {
	out := r.transportSpans()
	r.mu.Lock()
	out = append(out, r.spans...)
	r.mu.Unlock()
	sortSpans(out)
	return out
}

// writeTrace replays the spans, in start order, into a Chrome trace-event
// file through the repository's telemetry.Tracer, so it opens in Perfetto.
// The tracer must have been created before the first span started: its
// creation instant is the file's time origin.
func writeTrace(tr *telemetry.Tracer, spans []span, meta []telemetry.Arg) error {
	tr.Meta("perfbench", meta...)
	for _, s := range spans {
		tr.Span(s.track, s.tid, s.name, s.start, s.dur(),
			telemetry.Arg{Key: "federation", Val: s.fed},
			telemetry.Arg{Key: "task", Val: s.task},
			telemetry.Arg{Key: "round", Val: s.round},
			telemetry.Arg{Key: "job", Val: s.job},
			telemetry.Arg{Key: "n", Val: s.n})
	}
	return tr.Close()
}

// interval is a half-open time range.
type interval struct{ a, b time.Time }

// union merges spans into disjoint intervals sorted by start.
func union(spans []span) []interval {
	iv := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.end.After(s.start) {
			iv = append(iv, interval{s.start, s.end})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a.Before(iv[j].a) })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && !x.a.After(out[n-1].b) {
			if x.b.After(out[n-1].b) {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered is how much of [a, b) the disjoint sorted intervals cover.
func covered(u []interval, a, b time.Time) time.Duration {
	i := sort.Search(len(u), func(i int) bool { return u[i].b.After(a) })
	var d time.Duration
	for ; i < len(u) && u[i].a.Before(b); i++ {
		lo, hi := u[i].a, u[i].b
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		d += hi.Sub(lo)
	}
	return d
}
