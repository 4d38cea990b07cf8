package fl

import (
	"fmt"
	"math/rand"
	"time"

	"reffil/internal/telemetry"
)

// TaggedResult is one result admitted into an asynchronous round, carrying
// its provenance: which round's global weights the replica trained from
// (Origin), how many rounds late it is being admitted (Staleness, the
// admitting round minus Origin), and its staleness-discounted FedAvg
// weight. The engine aggregates TaggedResults exactly as it aggregates
// synchronous results, trusting the runner's (Origin, job-order) ordering.
type TaggedResult struct {
	// ClientID identifies the participant the result came from.
	ClientID int
	// Origin is the communication round whose jobs produced this result —
	// the replica trained against the global weights as of round Origin.
	Origin int
	// Staleness is admitting-round minus Origin; 0 for fresh results.
	Staleness int
	// Weight is the FedAvg weight after the staleness discount has been
	// applied (the job's base weight for Staleness 0 under the default
	// discount).
	Weight float64
	// Result is the trained state dict and method upload, unchanged.
	Result Result
}

// DefaultDiscount is the staleness discount applied to a late result's
// FedAvg weight when AsyncRunner.Discount is nil: 1/(1+k) for a result k
// rounds stale. It is 1 at k=0, so fresh results aggregate exactly as in
// the synchronous path.
func DefaultDiscount(staleness int) float64 { return 1 / float64(1+staleness) }

// AsyncRunner is the engine's one round path: it runs each round's jobs on
// Inner and admits the results into FedAvg under bounded-staleness
// semantics. The engine wraps any other Runner in an AsyncRunner with
// Staleness 0, which admits exactly each round's own results, in job
// order, with undiscounted weights — the synchronous round.
//
// The Delay policy decides per result whether it reports immediately or
// lags like a straggler, reporting into a later round of the same task
// with a staleness-discounted weight. Results delayed beyond the
// Staleness bound are dropped (the bounded-staleness guarantee: the
// aggregator never consumes a result staler than S rounds). Admission
// order is (Origin, position in the origin round's job list), and the last
// round of a task (drain) admits everything still pending, so no result
// crosses a task boundary.
//
// AsyncRunner is not safe for concurrent use; the engine drives rounds
// serially.
type AsyncRunner struct {
	// Inner executes the actual training.
	Inner Runner
	// Staleness is the bound S: a result may report up to S rounds after
	// the round whose weights it trained against. 0 reproduces the
	// synchronous path bit for bit (when Delay is nil or always 0).
	Staleness int
	// Delay decides how many rounds a job's result lags before reporting
	// (0 = report into its own round). Results with Delay > Staleness are
	// dropped. nil means no result ever lags. The policy must be
	// deterministic in (round, spec) for reproducible runs — see
	// StragglerDelay.
	Delay func(round int, spec JobSpec) int
	// Discount maps a result's staleness to its FedAvg weight multiplier;
	// nil means DefaultDiscount. Discount(0) should be 1 (anything else
	// rescales fresh rounds too) and must be positive — FedAvg rejects
	// non-positive weights.
	Discount func(staleness int) float64
	// Telemetry, when non-nil, receives admission-queue depth, staleness
	// distribution, discounted weight mass and drop events. Observation
	// only — admission order and weights are unaffected.
	Telemetry *telemetry.Sink

	task    int
	pending []pendingResult
	dropped int
}

// pendingResult is a result withheld by the Delay policy, waiting for its
// admission round. Over a Dispatcher the result is still in flight on the
// transport (inflight set) and is awaited at admission time — that
// wall-clock overlap is the whole point of the pipelined path; over any
// other Runner res holds the trained result.
type pendingResult struct {
	due        int
	origin     int
	index      int // position in the origin round's job list
	clientID   int
	baseWeight float64
	inflight   bool
	res        Result
}

// RunRoundStream executes round's jobs on Inner and hands every result due
// by this round (all of them under drain) to admit, one at a time, in
// (Origin, job-order) sequence; the rest are queued for a later round. An
// error from admit aborts the round.
//
// Inner's type picks one of two paths that admit the same results in the
// same order with the same weights:
//
//   - a Dispatcher (the pipelined transport) dispatches the round without a
//     barrier: results the Delay policy marks as lagging stay in flight on
//     the transport — the worker computes them while later rounds dispatch
//     and aggregate — and are awaited only when their admission round
//     comes up;
//   - any other Runner runs the round through RunEach: fresh results are
//     admitted in job order as they arrive (out-of-order arrivals wait for
//     their turn), and lagging ones are queued locally.
//
// After any error the runner's pending bookkeeping is unspecified; the
// engine treats a round error as fatal for the run.
func (a *AsyncRunner) RunRoundStream(task, round int, jobs []Job, drain bool, admit func(TaggedResult) error) error {
	if a.Inner == nil {
		return fmt.Errorf("fl: async runner has no inner runner")
	}
	if a.Staleness < 0 {
		return fmt.Errorf("fl: staleness bound must be non-negative, got %d", a.Staleness)
	}
	if task != a.task {
		// The drain at each task's last round guarantees an empty queue
		// here; a leftover would aggregate one task's update into another.
		if len(a.pending) > 0 {
			return fmt.Errorf("fl: %d results pending across task boundary %d -> %d", len(a.pending), a.task, task)
		}
		a.task = task
	}
	// delays[i] is job i's lag in rounds. The last round of a task has no
	// later round to lag into, so the window closes: delays are void and
	// every result is fresh.
	delays := make([]int, len(jobs))
	if a.Delay != nil && !drain {
		for i := range jobs {
			delays[i] = a.Delay(round, jobs[i].Spec)
		}
	}
	// settle routes job i's result by its delay: admitted now, dropped
	// beyond the bound, or queued. Called in job order, so the queue stays
	// in (origin, job-order).
	settle := func(i int, res Result, inflight bool) error {
		p := pendingResult{
			origin:     round,
			index:      i,
			clientID:   jobs[i].Spec.ClientID,
			baseWeight: jobs[i].Weight,
			inflight:   inflight,
			res:        res,
		}
		switch d := delays[i]; {
		case d <= 0:
			return admit(a.admit(p, round))
		case d > a.Staleness:
			a.dropped++ // beyond the bound: discarded like a dropout
			a.Telemetry.ResultDropped(round)
		default:
			p.due = round + d
			a.pending = append(a.pending, p)
		}
		return nil
	}

	if dp, ok := a.Inner.(Dispatcher); ok {
		if err := dp.Dispatch(task, round, jobs); err != nil {
			return err
		}
		// Queued results predate this round's, so they admit first. The
		// in-flight ones are awaited after this round's dispatch, so the
		// transport overlaps the wait with the new round's training.
		if err := a.admitDue(round, drain, admit, dp); err != nil {
			return err
		}
		for i, d := range delays {
			var res Result
			switch {
			case d <= 0:
				var err error
				if res, err = dp.Await(round, i); err != nil {
					return err
				}
			case d > a.Staleness:
				dp.Discard(round, i)
			}
			if err := settle(i, res, d > 0); err != nil {
				return err
			}
		}
	} else {
		if err := a.admitDue(round, drain, admit, nil); err != nil {
			return err
		}
		next := 0
		held := make(map[int]Result)
		err := a.Inner.RunEach(jobs, func(i int, res Result) error {
			held[i] = res
			for {
				res, ok := held[next]
				if !ok {
					return nil
				}
				delete(held, next)
				if err := settle(next, res, false); err != nil {
					return err
				}
				next++
			}
		})
		if err != nil {
			return err
		}
		if next != len(jobs) {
			return fmt.Errorf("fl: runner completed %d of %d jobs", next, len(jobs))
		}
	}
	a.Telemetry.QueueDepth(len(a.pending))
	return nil
}

// admitDue admits every queued result due by round (all of them under
// drain), in queue order, awaiting in-flight ones on dp.
func (a *AsyncRunner) admitDue(round int, drain bool, admit func(TaggedResult) error, dp Dispatcher) error {
	keep := a.pending[:0]
	for _, p := range a.pending {
		if !drain && p.due > round {
			keep = append(keep, p)
			continue
		}
		if p.inflight {
			res, err := dp.Await(p.origin, p.index)
			if err != nil {
				return err
			}
			p.res, p.inflight = res, false
		}
		if err := admit(a.admit(p, round)); err != nil {
			return err
		}
	}
	a.pending = keep
	return nil
}

// admit stamps a pending result's provenance and discounted weight for
// admission into the given round.
func (a *AsyncRunner) admit(p pendingResult, round int) TaggedResult {
	k := round - p.origin
	disc := DefaultDiscount
	if a.Discount != nil {
		disc = a.Discount
	}
	tr := TaggedResult{
		ClientID:  p.clientID,
		Origin:    p.origin,
		Staleness: k,
		Weight:    p.baseWeight * disc(k),
		Result:    p.res,
	}
	a.Telemetry.ResultAdmitted(round, tr.Origin, tr.Staleness, tr.Weight)
	return tr
}

// RunEach implements Runner by delegating to Inner, so an AsyncRunner can
// be handed to NewEngineWithRunner. The engine never calls it: it admits
// every round through RunRoundStream.
func (a *AsyncRunner) RunEach(jobs []Job, done func(i int, res Result) error) error {
	if a.Inner == nil {
		return fmt.Errorf("fl: async runner has no inner runner")
	}
	return a.Inner.RunEach(jobs, done)
}

// Pending reports how many trained results are currently withheld.
func (a *AsyncRunner) Pending() int { return len(a.pending) }

// Dropped reports how many results were discarded for exceeding the
// staleness bound over the runner's lifetime.
func (a *AsyncRunner) Dropped() int { return a.dropped }

// StragglerDelay builds a deterministic Delay policy for straggler
// simulation: each (round, client) pair independently lags with the given
// probability, by 1..maxDelay rounds. The decision is a pure function of
// (seed, round, client), so identical runs see identical stragglers
// regardless of runner layout or worker count.
func StragglerDelay(seed int64, prob float64, maxDelay int) func(round int, spec JobSpec) int {
	return func(round int, spec JobSpec) int {
		if prob <= 0 || maxDelay <= 0 {
			return 0
		}
		// splitmix64 increment and mixer constants; both odd, so the
		// per-coordinate products permute rather than collapse.
		const mix1, mix2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
		h := uint64(seed) ^ uint64(round+1)*mix1 ^ uint64(spec.ClientID+1)*mix2
		rng := rand.New(rand.NewSource(int64(h)))
		if rng.Float64() >= prob {
			return 0
		}
		return 1 + rng.Intn(maxDelay)
	}
}

// SleepUnlessStopped sleeps for d, returning true after the full duration
// or false immediately when stop closes first. A nil stop never fires, and
// a non-positive d returns true without sleeping.
func SleepUnlessStopped(stop <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// StragglerSleep builds the worker-side twin of StragglerDelay: the same
// deterministic (seed, round, client) decision, but expressed as real
// wall-clock sleep of delay×unit instead of a round-admission lag — the
// straggler simulation for pipelined transports, where slowness is
// physical. Coordinator Delay policy and worker sleep built from the same
// (seed, prob, maxDelay) agree on exactly which jobs lag and by how many
// rounds, so admission anticipates the actual slowness.
//
// The sleep is stop-aware (SleepUnlessStopped): a worker whose coordinator
// died mid-round cancels the remaining delay instead of sleeping it out.
// The returned function reports whether the sleep ran to completion.
func StragglerSleep(seed int64, prob float64, maxDelay int, unit time.Duration) func(stop <-chan struct{}, round int, spec JobSpec) bool {
	delay := StragglerDelay(seed, prob, maxDelay)
	return func(stop <-chan struct{}, round int, spec JobSpec) bool {
		d := delay(round, spec)
		if d <= 0 {
			return true
		}
		return SleepUnlessStopped(stop, time.Duration(d)*unit)
	}
}

var _ Runner = (*AsyncRunner)(nil)
