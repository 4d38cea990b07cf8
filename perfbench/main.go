// Command perfbench is the repository's benchmark. It runs RefFiL
// federations on PACS through the public engine and transport API, checks
// every run's accuracy matrix bit for bit against an in-process reference
// of the same seed, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1), each by name with
// its unit, ending with one JSON line. Build and run it from the
// repository root through run.py:
//
//	python3 perfbench/run.py --workload tcp-sync --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"reffil/internal/metrics"
	"reffil/internal/telemetry"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the system
// sees them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_cpu_s", "1/s"},
	{"round_cpu_ms_p50", "ms"},
}

// perLayer are the traced run's metrics of single layers. Times a layer
// only spends on some workloads are given as shares of the round time, so
// that every metric is defined on every workload; README.md lists them.
var perLayer = []metricDef{
	{"core.local_train_ms_per_job", "ms"},
	{"core.local_train_share", "frac"},
	{"core.spawn_ms_per_job", "ms"},
	{"core.server_round_ms", "ms"},
	{"core.predict_ms_per_sample", "ms"},
	{"core.task_hooks_ms", "ms"},
	{"core.upload_encode_share", "frac"},
	{"core.upload_decode_share", "frac"},
	{"core.upload_bytes_per_job", "bytes"},
	{"core.wire_state_encode_share", "frac"},
	{"core.wire_state_load_share", "frac"},
	{"core.wire_state_bytes", "bytes"},
	{"transport.dispatch_share", "frac"},
	{"transport.last_ack_share", "frac"},
	{"transport.worker_busy_share", "frac"},
	{"transport.ack_send_share", "frac"},
	{"transport.ack_wait_share", "frac"},
	{"transport.overlap_ratio", "frac"},
	{"transport.wire_bytes_per_round", "bytes"},
	{"transport.broadcast_bytes_per_round", "bytes"},
	{"transport.upload_bytes_per_round", "bytes"},
	{"transport.frames_full", "count"},
	{"transport.frames_delta", "count"},
	{"transport.frames_idle", "count"},
	{"transport.fallbacks", "count"},
	{"transport.extra_attempts", "count"},
	{"fl.async_pending_max", "count"},
	{"fl.async_dropped", "count"},
	{"fl.untraced_ms_per_round", "ms"},
	{"fl.fold_ms_per_job", "ms"},
	{"fl.finalize_ms_per_round", "ms"},
	{"checkpoint.save_share", "frac"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.load_ms", "ms"},
	{"wire.upload_encode_ms", "ms"},
	{"wire.upload_decode_ms", "ms"},
	{"wire.upload_patch_bytes", "bytes"},
	{"wire.broadcast_frame_ms", "ms"},
	{"wire.broadcast_frame_bytes", "bytes"},
	{"nn.load_state_ms", "ms"},
	{"data.materialize_ms_per_shard", "ms"},
	{"data.generate_ms_per_task", "ms"},
	{"model.forward_ms_per_batch", "ms"},
	{"autograd.backward_ms_per_batch", "ms"},
	{"opt.step_ms_per_batch", "ms"},
	{"autograd.allocs_per_step", "count"},
	{"run.alloc_mb_per_sample", "MB"},
	{"run.gc_cpu_frac", "frac"},
	{"run.peak_heap_mb", "MB"},
	{"parallel.scaling_x", "x"},
	{"trace_overhead_frac", "x"},
}

// setupReps is how many extra set-ups (built and torn down without
// running) join the window's own set-ups in the setup_s median.
const setupReps = 41

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	command  string
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: inproc-mini, tcp-sync or tcp-straggler")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: data, partitions, selection and initial weights")
	fs.IntVar(&o.seconds, "seconds", 15, "measure whole federations for about this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for reports, traces and checkpoints")
	fs.StringVar(&o.command, "command", "", "the command line to record in the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(o.workload)
	if err == nil && (o.seconds < 1 || (o.trace != 0 && o.trace != 1)) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.command == "" {
		o.command = strings.Join(os.Args, " ")
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace))
	if err := os.RemoveAll(dir); err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := bench(w, o, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(os.Stdout, filepath.Join(dir, "report.json")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// window is one measured stretch of back-to-back federations.
type window struct {
	feds      []*fedRun
	attempted int64
	failed    int64
	errs      []string
}

// subSeed is the seed of the i-th federation of a run with the given
// seed. Cycling through sub-seeds spreads one run over several data
// partitions, so a run measures the workload rather than one draw of it.
// The engine XORs client, task and round numbers into the seed's low bits
// (fl.ClientSeed), so consecutive seeds would share client streams; the
// sub-seeds are scattered by a splitmix64 step instead, and stay below
// 2^53.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*1000 + uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 11)
}

// measure runs whole federations of the workload back to back, one
// sub-seed after the other, for about seconds: another federation starts
// while the time so far plus half a mean federation stays within seconds,
// so the window ends within half a federation of its target. At least one
// federation runs.
func measure(w *workload, seed int64, seconds int, rec *recorder, dir string) *window {
	win := &window{}
	limit := time.Duration(seconds) * time.Second
	begin := time.Now()
	for i := 0; ; i++ {
		rec.startFederation(i)
		runtime.GC()
		peak := startHeapPeak(2 * time.Millisecond)
		f := w.federation(subSeed(seed, i), rec, dir)
		f.peakHeap = peak.stop()
		win.feds = append(win.feds, f)
		elapsed := time.Since(begin)
		if elapsed+elapsed/time.Duration(2*(i+1)) > limit {
			return win
		}
	}
}

// references runs each sub-seed's in-process reference once and keeps its
// matrix and Engine.Run wall time.
type references struct {
	w    *workload
	mats map[int64]*metrics.Matrix
	wall map[int64]time.Duration
}

func (r *references) get(seed int64) (*metrics.Matrix, error) {
	if m, ok := r.mats[seed]; ok {
		return m, nil
	}
	m, wall, err := r.w.reference(seed)
	if err != nil {
		return nil, fmt.Errorf("reference run of seed %d: %w", seed, err)
	}
	r.mats[seed], r.wall[seed] = m, wall
	return m, nil
}

// settle checks every federation of the window against its reference,
// after the window: a federation that errored or whose matrix differs
// counts all its jobs as failed.
func (r *references) settle(win *window) error {
	for i, f := range win.feds {
		jobs := max(f.jobs, 1)
		win.attempted += jobs
		if f.err == nil {
			ref, err := r.get(f.seed)
			if err != nil {
				return err
			}
			f.err = sameMatrix(f.mat, ref)
		}
		if f.err != nil {
			win.failed += jobs
			win.errs = append(win.errs, fmt.Sprintf("federation %d (seed %d): %v", i, f.seed, f.err))
		}
	}
	return nil
}

// sameMatrix compares two accuracy matrices bit for bit.
func sameMatrix(got, want *metrics.Matrix) error {
	if len(got.A) != len(want.A) {
		return fmt.Errorf("matrix has %d rows, reference %d", len(got.A), len(want.A))
	}
	for t := range want.A {
		for i := 0; i <= t; i++ {
			if math.Float64bits(got.A[t][i]) != math.Float64bits(want.A[t][i]) {
				return fmt.Errorf("accuracy [%d][%d] is %v, reference %v", t, i, got.A[t][i], want.A[t][i])
			}
		}
	}
	return nil
}

// bench runs the set-ups and the measured window, and in trace mode the
// untraced baseline federation, the traced window and the replays; the
// references run after the windows they check.
func bench(w *workload, o options, dir string) (*report, error) {
	rep := newReport(w, o)
	refs := &references{w: w, mats: make(map[int64]*metrics.Matrix), wall: make(map[int64]time.Duration)}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r, err := w.setUp(subSeed(o.seed, 0), nil, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, r.run.setup.Seconds())
		if err := r.tearDown(true); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
	}

	if o.trace == 0 {
		win := measure(w, o.seed, o.seconds, nil, dir)
		if err := refs.settle(win); err != nil {
			return nil, err
		}
		rep.endToEnd(win, setups)
		return rep, nil
	}

	// The untraced baseline federation (sub-seed 0): the base of the
	// tracing overhead and of the process-wide allocation and GC figures.
	runtime.GC()
	m0 := readMetrics(allocBytes, gcCPU, totalCPU)
	baseWin := measure(w, o.seed, 1, nil, dir)
	m1 := readMetrics(allocBytes, gcCPU, totalCPU)
	base := baseWin.feds[0]

	tracePath := filepath.Join(dir, "trace.json")
	tracer, err := telemetry.CreateTrace(tracePath)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(w.pairEvery)
	win := measure(w, o.seed, o.seconds, rec, dir)
	for _, x := range []*window{baseWin, win} {
		if err := refs.settle(x); err != nil {
			return nil, err
		}
	}
	win.attempted += baseWin.attempted
	win.failed += baseWin.failed
	win.errs = append(baseWin.errs, win.errs...)
	rep.endToEnd(win, setups)

	spans := rec.allSpans()
	if err := writeTrace(tracer, spans, rep.meta()); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.Files = append(rep.Files, tracePath)
	replayed, err := replay(w, o.seed, rec, win.feds[len(win.feds)-1].ckptPath, dir)
	if err != nil {
		return nil, err
	}
	rep.perLayer(w, win, rec, spans, replayed)

	l := rep.Layer
	l["run.alloc_mb_per_sample"] = ratio(m1[0]-m0[0], float64(base.samples)) / 1e6
	l["run.gc_cpu_frac"] = ratio(m1[1]-m0[1], m1[2]-m0[2])
	l["run.peak_heap_mb"] = base.peakHeap / 1e6
	// The first traced federation ran the baseline's sub-seed.
	baseWall := base.end.Sub(base.start).Seconds()
	l["trace_overhead_frac"] = ratio(win.feds[0].end.Sub(win.feds[0].start).Seconds(), baseWall)
	if !w.tcp {
		// The reference trained the same jobs at one worker.
		l["parallel.scaling_x"] = ratio(refs.wall[base.seed].Seconds(), baseWall)
	} else {
		rep.na("parallel.scaling_x", "the reference runs at one worker only on inproc-mini")
	}
	return rep, nil
}
