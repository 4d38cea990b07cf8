// Cross-runner determinism coverage: the acceptance gate for the pluggable
// round Runner. For every method the in-process LocalRunner and a real TCP
// fan-out over 127.0.0.1 must produce identical accuracy matrices for the
// same (dataset, domain, seed, workers) — the networked path runs the same
// engine, derives the same shards from specs, and trains the same replicas.
//
// Lives in an external test package so it can drive the real algorithms
// (core/baselines import fl; importing them from package transport itself
// would blur the layering even though no cycle exists).
package transport_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/model"
)

// crossRunnerConfig is deliberately tiny: enough tasks/rounds/clients to
// exercise selection, the In-between shard merge, wire state for every
// method, and multi-job broadcasts (SelectPerRound > worker count), small
// enough for -race.
func crossRunnerConfig() fl.Config {
	return fl.Config{
		Rounds:            2,
		Epochs:            1,
		BatchSize:         8,
		LR:                0.05,
		InitialClients:    4,
		SelectPerRound:    3,
		ClientsPerTaskInc: 1,
		TransferFrac:      0.8,
		Alpha:             0.5,
		TrainPerDomain:    24,
		TestPerDomain:     12,
		EvalBatch:         12,
		Seed:              2025,
		Workers:           2,
	}
}

// runLocal executes the full task sequence on the in-process runner.
func runLocal(t *testing.T, method string, family *data.Family, domains []string) [][]float64 {
	t.Helper()
	alg, err := experiments.NewMethodFromFlag(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fl.NewEngine(crossRunnerConfig(), alg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	return mat.A
}

// runLocalAsync executes the full task sequence on an AsyncRunner layered
// over the in-process runner with the given staleness window (and no
// delays — the bit-identity contract under test).
func runLocalAsync(t *testing.T, method string, family *data.Family, domains []string, staleness int) [][]float64 {
	t.Helper()
	alg, err := experiments.NewMethodFromFlag(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crossRunnerConfig()
	runner := &fl.AsyncRunner{
		Inner:     &fl.LocalRunner{Alg: alg, Workers: cfg.Workers},
		Staleness: staleness,
	}
	eng, err := fl.NewEngineWithRunner(cfg, alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	return mat.A
}

// runTCP executes the same sequence with the transport Pipeline over
// loopback: nWorkers goroutine "machines", each speaking only gob-over-TCP
// through an Executor around its own independently constructed algorithm
// instance. wrap, when non-nil, layers another runner (e.g. fl.AsyncRunner)
// over the Pipeline.
func runTCP(t *testing.T, method string, family *data.Family, domains []string, nWorkers int, wrap func(fl.Runner) fl.Runner) [][]float64 {
	return runTCPCodec(t, method, family, domains, nWorkers, wrap, "")
}

// runTCPCodec is runTCP with an explicit broadcast codec ("" keeps the
// Pipeline's default full snapshots).
func runTCPCodec(t *testing.T, method string, family *data.Family, domains []string, nWorkers int, wrap func(fl.Runner) fl.Runner, codec string) [][]float64 {
	mat, _ := runTCPCodecStats(t, method, family, domains, nWorkers, wrap, codec)
	return mat
}

// runTCPCodecStats additionally returns the Pipeline's cumulative wire
// accounting, so tests can assert which upload/broadcast paths a run
// actually exercised.
func runTCPCodecStats(t *testing.T, method string, family *data.Family, domains []string, nWorkers int, wrap func(fl.Runner) fl.Runner, codec string) ([][]float64, transport.Stats) {
	return runTCPFederation(t, method, family, domains, nWorkers, nil, codec, wrap)
}

// barrierOnly hides the Pipeline's fl.Dispatcher methods, so an
// fl.AsyncRunner over it takes the plain-Runner path: every round awaited
// in full (RunEach) before the next dispatch, lagging results completed
// and queued locally — the barrier schedule the pipelined path must match.
type barrierOnly struct{ fl.Runner }

// runTCPFederation is the loopback harness behind runTCP and
// runTCPPipelined: straggle maps a worker id to a pre-ack hook on that
// worker's Executor, and each worker is pinned to codec (the fedworker
// -codec guard: a frame from any other codec fails the run).
func runTCPFederation(t *testing.T, method string, family *data.Family, domains []string, nWorkers int, straggle map[int]func(fl.JobSpec), codec string, wrap func(fl.Runner) fl.Runner) ([][]float64, transport.Stats) {
	t.Helper()
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	workerErr := make([]error, nWorkers)
	for id := 0; id < nWorkers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			alg, err := experiments.NewMethodFromFlag(method, model.DefaultConfig(family.Classes), len(domains), 7)
			if err != nil {
				workerErr[id] = err
				return
			}
			ex, err := transport.NewExecutor(alg, 1)
			if err != nil {
				workerErr[id] = err
				return
			}
			ex.ExpectCodec = codec
			ex.Straggle = straggle[id]
			w, err := transport.Dial(coord.Addr(), id)
			if err != nil {
				workerErr[id] = err
				return
			}
			defer w.Close()
			workerErr[id] = w.Serve(ex.Handle)
		}(id)
	}
	if err := coord.Accept(nWorkers, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	alg, err := experiments.NewMethodFromFlag(method, model.DefaultConfig(family.Classes), len(domains), 7)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := transport.NewPipeline(coord, alg)
	if err != nil {
		t.Fatal(err)
	}
	if codec != "" {
		if err := pl.UseCodec(codec); err != nil {
			t.Fatal(err)
		}
	}
	var runner fl.Runner = pl
	if wrap != nil {
		runner = wrap(runner)
	}
	eng, err := fl.NewEngineWithRunner(crossRunnerConfig(), alg, runner)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := eng.Run(family, domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range workerErr {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	return mat.A, pl.Stats()
}

// TestCrossRunnerDeterminism asserts exact (==) equality of the accuracy
// matrices from the local and loopback-TCP runners for all six -method
// algorithms.
func TestCrossRunnerDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodFlags()
	if testing.Short() {
		methods = []string{"reffil", "lwf"}
	}
	for _, method := range methods {
		method := method
		t.Run(method, func(t *testing.T) {
			local := runLocal(t, method, family, domains)
			remote := runTCP(t, method, family, domains, 2, nil)
			// Only the lower triangle is recorded (task i is evaluated on
			// domains 0..i); the rest stays NaN.
			requireSameMatrix(t, "TCP", local, remote)
		})
	}
}

// requireSameMatrix asserts exact (==) equality on the recorded lower
// triangle of two accuracy matrices.
func requireSameMatrix(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	for i := range want {
		for j := 0; j <= i; j++ {
			if want[i][j] != got[i][j] {
				t.Fatalf("accuracy matrix diverged at [%d][%d]: reference %v vs %s %v",
					i, j, want[i][j], label, got[i][j])
			}
		}
	}
}

// TestAsyncStalenessZeroMatchesSync is the async acceptance gate: an
// fl.AsyncRunner with staleness window 0 (and no delays) layered over the
// same in-process pool must reproduce the synchronous LocalRunner's
// accuracy matrices exactly (==) for all six -method algorithms — the
// bounded-staleness bookkeeping degenerates to the synchronous round.
func TestAsyncStalenessZeroMatchesSync(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodFlags()
	if testing.Short() {
		methods = []string{"reffil", "lwf"}
	}
	for _, method := range methods {
		method := method
		t.Run(method, func(t *testing.T) {
			local := runLocal(t, method, family, domains)
			async := runLocalAsync(t, method, family, domains, 0)
			requireSameMatrix(t, "async(S=0)", local, async)
		})
	}
}

// TestAsyncOverTCPStalenessZero stacks the layers the fedserver CLI
// stacks — engine → AsyncRunner(S=0) → Pipeline → TCP workers —
// and requires the result to stay bit-identical to the plain local run.
func TestAsyncOverTCPStalenessZero(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	local := runLocal(t, "reffil", family, domains)
	remote := runTCP(t, "reffil", family, domains, 2, func(inner fl.Runner) fl.Runner {
		return &fl.AsyncRunner{Inner: inner, Staleness: 0}
	})
	requireSameMatrix(t, "async-over-TCP(S=0)", local, remote)
}

// TestShardSpecMaterializeMatchesPartition pins the data-derivation
// contract: a worker materializing a ShardSpec must recover exactly the
// shard the engine partitioned, for every slot of the partition.
func TestShardSpecMaterializeMatchesPartition(t *testing.T) {
	const (
		seed     = int64(41)
		task     = 1
		learners = 3
	)
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := family.Generate(family.Domains[task], 30, 10, fl.TaskSeed(seed, task))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.PartitionQuantityShift(train, learners, 0.5,
		rand.New(rand.NewSource(fl.PartitionSeed(seed, task))))
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range shards {
		want.SetTask(task)
		got, err := fl.ShardSpec{
			Dataset:        "pacs",
			Image:          16,
			Domain:         family.Domains[task],
			Task:           task,
			TrainPerDomain: 30,
			TestPerDomain:  10,
			GenSeed:        fl.TaskSeed(seed, task),
			Learners:       learners,
			Index:          idx,
			Alpha:          0.5,
			PartSeed:       fl.PartitionSeed(seed, task),
		}.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("shard %d: materialized %d examples, engine holds %d", idx, got.Len(), want.Len())
		}
		for i := range want.Examples {
			w, g := want.Examples[i], got.Examples[i]
			if w.Y != g.Y || w.Task != g.Task {
				t.Fatalf("shard %d example %d: label/task mismatch", idx, i)
			}
			if !w.X.AllClose(g.X, 0) {
				t.Fatalf("shard %d example %d: pixel data diverged", idx, i)
			}
		}
	}
}

// TestCodecDeterminism is the delta acceptance gate for both wire
// directions: with the "delta" codec — per-key diffs against each worker's
// acked base version on broadcast, per-job patch uploads against the
// round's broadcast base on the way back (protocol v5), wire-state payload
// sent only when its bytes change — every method's loopback-TCP accuracy
// matrix must equal the synchronous in-process reference exactly (==).
// Combined with TestCrossRunnerDeterminism (full codec == local), this
// proves codec full == codec delta for all six methods: the delta path
// changes how bytes move, never what arrives. Each delta run must also
// prove it exercised the upload-patch path — every ack a patch, no silent
// fallback to full-state uploads.
//
// The async sub-test stacks the layers under churn: an fl.AsyncRunner with
// staleness window 1 and deterministic stragglers over the TCP transport,
// run once per codec. Lagging results make the matrices legitimately differ
// from the synchronous run, but full vs delta must still agree bit for bit.
func TestCodecDeterminism(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	methods := experiments.MethodFlags()
	if testing.Short() {
		methods = []string{"reffil", "lwf"}
	}
	for _, method := range methods {
		method := method
		t.Run(method, func(t *testing.T) {
			local := localReference(t, method, family, domains)
			delta, stats := runTCPCodecStats(t, method, family, domains, 2, nil, "delta")
			requireSameMatrix(t, "TCP(delta)", local, delta)
			requireAllPatchUploads(t, stats)
		})
	}

	t.Run("async_S1_stragglers", func(t *testing.T) {
		wrap := func(inner fl.Runner) fl.Runner {
			return &fl.AsyncRunner{
				Inner:     inner,
				Staleness: 1,
				Delay:     fl.StragglerDelay(crossRunnerConfig().Seed, 0.33, 1),
			}
		}
		full, fullStats := runTCPCodecStats(t, "lwf", family, domains, 2, wrap, "full")
		delta, deltaStats := runTCPCodecStats(t, "lwf", family, domains, 2, wrap, "delta")
		requireSameMatrix(t, "async delta vs async full", full, delta)
		// The full run is the legacy upload baseline, the delta run must be
		// all patches — and it must land the identical matrix above.
		if fullStats.PatchUploads != 0 || fullStats.StateUploads == 0 {
			t.Fatalf("full-codec run uploads: %+v, want legacy full-state uploads only", fullStats)
		}
		requireAllPatchUploads(t, deltaStats)
	})
}

// requireAllPatchUploads asserts a delta-codec run delta-encoded every
// upload: under any non-full codec the worker always holds the round's
// base by the time it trains, so the full-state fallback must never fire.
func requireAllPatchUploads(t *testing.T, stats transport.Stats) {
	t.Helper()
	if stats.PatchUploads == 0 {
		t.Fatal("delta-codec run produced no patch uploads — the v5 upload path never engaged")
	}
	if stats.StateUploads != 0 || stats.UploadFallbacks != 0 {
		t.Fatalf("delta-codec run uploads: %+v, want patches only", stats)
	}
}

// TestTopKCodecRuns is the lossy codec's smoke gate: a full engine run over
// TCP with the "topk" sparsifier completes and records sane accuracies. No
// equality with the reference is asserted — dropping small-magnitude
// changes is an approximation by design (bit-identity holds only for
// lossless codecs).
func TestTopKCodecRuns(t *testing.T) {
	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	domains := family.Domains[:2]
	mat := runTCPCodec(t, "finetune", family, domains, 2, nil, "topk")
	for i := range mat {
		for j := 0; j <= i; j++ {
			if mat[i][j] < 0 || mat[i][j] > 1 {
				t.Fatalf("accuracy [%d][%d] = %v outside [0,1]", i, j, mat[i][j])
			}
		}
	}
}
