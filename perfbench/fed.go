package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"reffil/internal/checkpoint"
	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/metrics"
	"reffil/internal/model"
	"reffil/internal/nn"
)

const (
	dataset    = "pacs"
	imageSize  = 16
	tasks      = 4
	method     = "RefFiL"
	tcpWorkers = 2
	// tcpRounds is the rounds per task of the TCP workloads: short
	// federations, so that one run covers several sub-seeds.
	tcpRounds = 10
	// Straggler simulation of tcp-straggler: half the (round, client) jobs
	// sleep one unit on their worker, and the coordinator expects the lag.
	// The sleeps then dominate the run, so its throughput barely moves with
	// compute speed and a lost overlap shows directly. At 20-30% the median
	// round sat between the fast and the delayed rounds and jumped by up to
	// a quarter from seed to seed.
	stragglerProb = 0.5
	stragglerUnit = 100 * time.Millisecond
)

// workload is one federation shape the benchmark runs.
type workload struct {
	name string
	// tcp runs the federation over a loopback coordinator and tcpWorkers
	// in-process workers; otherwise through fl.LocalRunner.
	tcp        bool
	staleness  int
	straggle   bool
	checkpoint bool
	// plain runs the methods unwrapped: no counters, spans or round
	// marks. Tests compare it with the wrapped run.
	plain bool
	// pairEvery spaces the jobs whose states the traced run keeps for the
	// replays over the run (about 80 jobs per federation in-process, 90 over TCP).
	pairEvery int
	config    func(seed int64) fl.Config
}

var workloads = []*workload{
	{
		name:      "inproc-mini",
		pairEvery: 9,
		config: func(seed int64) fl.Config {
			cfg := experiments.ScaleMini.EngineConfig(dataset, seed)
			cfg.Workers = runtime.NumCPU()
			return cfg
		},
	},
	{name: "tcp-sync", tcp: true, checkpoint: true, pairEvery: 15, config: tcpConfig},
	{name: "tcp-straggler", tcp: true, staleness: 1, straggle: true, pairEvery: 15, config: tcpConfig},
}

func tcpConfig(seed int64) fl.Config {
	return fl.Config{
		Rounds: tcpRounds, Epochs: 1, BatchSize: 8, LR: 0.05,
		InitialClients: 4, SelectPerRound: 3, ClientsPerTaskInc: 1,
		TransferFrac: 0.8, Alpha: 0.5,
		TrainPerDomain: 16, TestPerDomain: 8, EvalBatch: 8,
		Seed: seed, Workers: runtime.NumCPU(),
	}
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func newFamily() (*data.Family, []string, error) {
	family, err := data.NewFamily(dataset, imageSize)
	if err != nil {
		return nil, nil, err
	}
	return family, family.Domains[:tasks], nil
}

func newMethod(family *data.Family, seed int64) (fl.Algorithm, error) {
	return experiments.NewMethod(method, model.DefaultConfig(family.Classes), tasks, seed)
}

// reference runs the workload's in-process twin, unwrapped: LocalRunner at
// one worker for inproc-mini, LocalRunner for tcp-sync, and an AsyncRunner
// over LocalRunner with the same staleness and delay policy for
// tcp-straggler. It returns the matrix every run must match bit for bit
// and the wall time of Engine.Run.
func (w *workload) reference(seed int64) (*metrics.Matrix, time.Duration, error) {
	family, domains, err := newFamily()
	if err != nil {
		return nil, 0, err
	}
	alg, err := newMethod(family, seed)
	if err != nil {
		return nil, 0, err
	}
	cfg := w.config(seed)
	if !w.tcp {
		cfg.Workers = 1
	}
	var runner fl.Runner
	if w.staleness > 0 {
		runner = &fl.AsyncRunner{
			Inner:     &fl.LocalRunner{Alg: alg, Workers: cfg.Workers},
			Staleness: w.staleness,
			Delay:     w.delay(seed),
		}
	}
	eng, err := fl.NewEngineWithRunner(cfg, alg, runner)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	mat, err := eng.Run(family, domains)
	return mat, time.Since(start), err
}

func (w *workload) delay(seed int64) func(int, fl.JobSpec) int {
	if !w.straggle {
		return nil
	}
	return fl.StragglerDelay(seed, stragglerProb, w.staleness)
}

// fedRun is what one federation of the measured window produced.
type fedRun struct {
	seed       int64
	setup      time.Duration
	start, end time.Time   // Engine.Run
	marks      []time.Time // ServerRound returns: installed rounds
	samples    int64
	jobs       int64
	rounds     int
	peakHeap   float64 // bytes of live heap, at most
	mat        *metrics.Matrix
	err        error

	// Process CPU time at the start and end of Engine.Run and at each mark.
	cpuStart, cpuEnd time.Duration
	cpuMarks         []time.Duration

	// TCP only.
	wireBytes  int64
	stats      transport.Stats
	pendingMax int
	dropped    int
	ckptBytes  int64
	ckptPath   string
}

// intervals are the gaps between consecutive installed rounds, the first
// measured from the start of Engine.Run.
func (f *fedRun) intervals() []time.Duration {
	out := make([]time.Duration, len(f.marks))
	prev := f.start
	for i, m := range f.marks {
		out[i] = m.Sub(prev)
		prev = m
	}
	return out
}

// cpuIntervals are the process CPU times spent between consecutive
// installed rounds, the first from the start of Engine.Run.
func (f *fedRun) cpuIntervals() []time.Duration {
	out := make([]time.Duration, len(f.cpuMarks))
	prev := f.cpuStart
	for i, m := range f.cpuMarks {
		out[i] = m - prev
		prev = m
	}
	return out
}

// rig is one federation set up and ready to run.
type rig struct {
	w       *workload
	seed    int64
	rec     *recorder
	family  *data.Family
	domains []string
	count   counters
	coordH  *hooks
	inner   fl.Algorithm // the coordinator's method, unwrapped
	eng     *fl.Engine
	run     *fedRun
	// TCP only.
	coord   *transport.Coordinator
	pipe    *transport.Pipeline
	async   *fl.AsyncRunner
	workers []*transport.Worker
	wg      sync.WaitGroup
	stop    chan struct{}
	werrMu  sync.Mutex
	werr    error
}

// setUp builds a federation: family and method construction, and on TCP
// the coordinator, its workers, their join handshakes and the pipeline.
// dir receives checkpoints when the workload writes them.
func (w *workload) setUp(seed int64, rec *recorder, dir string) (*rig, error) {
	start := time.Now()
	r := &rig{w: w, seed: seed, rec: rec, run: &fedRun{seed: seed}, stop: make(chan struct{})}
	var err error
	if r.family, r.domains, err = newFamily(); err != nil {
		return nil, err
	}
	cfg := w.config(seed)
	r.run.rounds = cfg.Rounds * tasks
	r.coordH = &hooks{rec: rec, track: "coordinator", clientTids: !w.tcp, count: &r.count}
	r.coordH.onInstall = r.installed
	if r.inner, err = newMethod(r.family, seed); err != nil {
		return nil, err
	}
	alg := r.wrap(r.inner, r.coordH)

	if !w.tcp {
		var runner fl.Runner
		if rec != nil {
			runner = &roundTagger{inner: &fl.LocalRunner{Alg: alg, Workers: cfg.Workers}, h: r.coordH, rec: rec}
		}
		if r.eng, err = fl.NewEngineWithRunner(cfg, alg, runner); err != nil {
			return nil, err
		}
		r.run.setup = time.Since(start)
		return r, nil
	}

	if err := r.startTCP(); err != nil {
		r.tearDown(false)
		return nil, err
	}
	if r.pipe, err = transport.NewPipeline(r.coord, alg); err == nil {
		err = r.pipe.UseCodec("delta")
	}
	if err != nil {
		r.tearDown(false)
		return nil, err
	}
	if rec != nil {
		r.pipe.OnDispatch = func(task, round int) { rec.dispatched(task, round, time.Now()) }
		r.pipe.OnRound = rec.roundDone
	}
	r.async = &fl.AsyncRunner{Inner: r.pipe, Staleness: w.staleness, Delay: w.delay(seed)}
	if r.eng, err = fl.NewEngineWithRunner(cfg, alg, r.async); err != nil {
		r.tearDown(false)
		return nil, err
	}
	if w.checkpoint {
		r.run.ckptPath = filepath.Join(dir, "run.ckpt")
		r.eng.Checkpoint = r.saveCheckpoint
	}
	r.run.setup = time.Since(start)
	return r, nil
}

func (r *rig) wrap(alg fl.Algorithm, h *hooks) fl.Algorithm {
	if r.w.plain {
		return alg
	}
	return wrap(alg, h)
}

// startTCP listens on loopback and joins tcpWorkers workers, each an
// Executor with one job slot over its own instance of the method.
func (r *rig) startTCP() error {
	var err error
	if r.coord, err = transport.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	var sleep func(<-chan struct{}, int, fl.JobSpec) bool
	if r.w.straggle {
		sleep = fl.StragglerSleep(r.seed, stragglerProb, r.w.staleness, stragglerUnit)
	}
	for id := 0; id < tcpWorkers; id++ {
		inner, err := newMethod(r.family, r.seed)
		if err != nil {
			return err
		}
		h := &hooks{rec: r.rec, track: fmt.Sprintf("worker%d", id), count: &r.count}
		ex, err := transport.NewExecutor(r.wrap(inner, h), 1)
		if err != nil {
			return err
		}
		if sleep != nil {
			ex.Straggle = func(spec fl.JobSpec) { sleep(r.stop, spec.Round, spec) }
		}
		wk, err := transport.Dial(r.coord.Addr(), id)
		if err != nil {
			return err
		}
		r.workers = append(r.workers, wk)
		handle := ex.Handle
		if r.rec != nil {
			handle = tracedHandle(ex.Handle, h, r.rec)
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			if err := wk.Serve(handle); err != nil {
				r.werrMu.Lock()
				if r.werr == nil {
					r.werr = err
				}
				r.werrMu.Unlock()
			}
		}()
	}
	return r.coord.Accept(tcpWorkers, 10*time.Second)
}

// tracedHandle times a worker's whole broadcast (its busy time) and each
// ack send, and tags the worker's spans with the broadcast's round.
func tracedHandle(handle func(transport.Broadcast, func(transport.JobResult) error) error, h *hooks, rec *recorder) func(transport.Broadcast, func(transport.JobResult) error) error {
	return func(b transport.Broadcast, emit func(transport.JobResult) error) error {
		h.round.Store(packRound(b.Task, b.Round))
		rec.addSpecs(b.Jobs)
		start := time.Now()
		err := handle(b, func(jr transport.JobResult) error {
			s := time.Now()
			err := emit(jr)
			rec.add(span{name: "transport.ack_send", track: h.track, start: s, end: time.Now(), task: b.Task, round: b.Round, job: jr.Index})
			return err
		})
		rec.add(span{name: "transport.worker_busy", track: h.track, start: start, end: time.Now(), task: b.Task, round: b.Round, job: -1, n: int64(len(b.Jobs))})
		return err
	}
}

// roundTagger forwards to the in-process pool, tagging the coordinator's
// replica spans with their round and keeping the jobs' shard specs for the
// materialize replay. It implements fl.EachRunner like LocalRunner, so the
// engine takes the same path as without it.
type roundTagger struct {
	inner *fl.LocalRunner
	h     *hooks
	rec   *recorder
}

func (t *roundTagger) tag(jobs []fl.Job) {
	if len(jobs) > 0 {
		t.h.round.Store(packRound(jobs[0].Spec.Task, jobs[0].Spec.Round))
	}
	specs := make([]fl.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.Spec
	}
	t.rec.addSpecs(specs)
}

func (t *roundTagger) Run(jobs []fl.Job) ([]fl.Result, error) {
	t.tag(jobs)
	return t.inner.Run(jobs)
}

func (t *roundTagger) RunEach(jobs []fl.Job, done func(int, fl.Result) error) error {
	t.tag(jobs)
	return t.inner.RunEach(jobs, done)
}

// installed marks a round as installed; on the engine goroutine.
func (r *rig) installed(at time.Time) {
	r.run.marks = append(r.run.marks, at)
	r.run.cpuMarks = append(r.run.cpuMarks, procCPU())
	if r.async != nil && r.async.Pending() > r.run.pendingMax {
		r.run.pendingMax = r.async.Pending()
	}
	// Keep consecutive installed globals from the middle of the first
	// federation, where the prompt bank is populated, for the frame replay.
	if r.rec != nil && len(r.run.marks) > r.run.rounds/2 && r.rec.wantGlobal() {
		g := capturedGlobal{dict: nn.StateDict(r.inner.Global())}
		if ws, ok := r.inner.(fl.WireStater); ok {
			g.payload, _ = ws.EncodeWireState() // a failure only leaves the frame replay without a payload
		}
		r.rec.addGlobal(g)
	}
}

// saveCheckpoint is tcp-sync's Engine.Checkpoint hook, as the networked
// coordinator's -checkpoint-dir writes it: a run-state file after every
// round and task.
func (r *rig) saveCheckpoint(st fl.ResumeState) error {
	start := time.Now()
	err := checkpoint.SaveRunStateFile(r.run.ckptPath, &checkpoint.RunState{
		Method: "reffil", Seed: r.seed,
		NextTask: st.NextTask, NextRound: st.NextRound,
		Matrix: st.Matrix, Global: st.Global,
		Payload: st.Payload, HasPayload: st.HasPayload,
	})
	r.rec.add(span{name: "checkpoint.save", track: "coordinator", start: start, end: time.Now(), task: st.NextTask, round: st.NextRound - 1, job: -1})
	return err
}

// execute runs the federation once and records what it produced.
func (r *rig) execute() *fedRun {
	f := r.run
	var in0, out0 int64
	if r.coord != nil {
		in0, out0 = r.coord.BytesTransferred()
	}
	f.cpuStart, f.start = procCPU(), time.Now()
	f.mat, f.err = r.eng.Run(r.family, r.domains)
	f.end, f.cpuEnd = time.Now(), procCPU()
	f.samples, f.jobs = r.count.samples.Load(), r.count.jobs.Load()
	if r.coord != nil {
		in, out := r.coord.BytesTransferred()
		f.wireBytes = in - in0 + out - out0
		f.stats = r.pipe.Stats()
		f.dropped = r.async.Dropped()
	}
	if f.ckptPath != "" {
		if fi, err := os.Stat(f.ckptPath); err == nil {
			f.ckptBytes = fi.Size()
		}
	}
	return f
}

// tearDown stops the federation: after a clean run the workers get their
// goodbye and exit on their own; otherwise the connections are cut. It
// returns the first worker error.
func (r *rig) tearDown(clean bool) error {
	if r.pipe != nil {
		_ = r.pipe.Close()
	}
	close(r.stop)
	if r.coord != nil {
		if clean {
			// Best effort: a failed goodbye shows up as a worker error.
			_ = r.coord.Shutdown()
			done := make(chan struct{})
			go func() { r.wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				clean = false
			}
		}
		_ = r.coord.Close()
	}
	for _, wk := range r.workers {
		_ = wk.Close()
	}
	r.wg.Wait()
	r.werrMu.Lock()
	defer r.werrMu.Unlock()
	if !clean {
		return nil
	}
	return r.werr
}

// federation sets up, runs and tears down one federation.
func (w *workload) federation(seed int64, rec *recorder, dir string) *fedRun {
	r, err := w.setUp(seed, rec, dir)
	if err != nil {
		return &fedRun{seed: seed, err: fmt.Errorf("set-up: %w", err)}
	}
	f := r.execute()
	if err := r.tearDown(f.err == nil); err != nil && f.err == nil {
		f.err = fmt.Errorf("worker: %w", err)
	}
	return f
}
