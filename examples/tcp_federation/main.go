// TCP federation: the full federated domain-incremental engine running
// over a real network transport. A coordinator listens on loopback; two
// worker processes (goroutines here, but each speaks only gob-over-TCP)
// execute the rounds' jobs, deriving their private shards from the job
// specs — no training data crosses the wire. The networked run uses the
// v5 delta wire format (-codec delta in the CLIs), delta-encoded in both
// directions: per-key state diffs against each worker's acked base version
// on broadcast, per-job patches of the trained state against the round's
// base on upload, method wire state only when it changes, and per-round
// byte accounting printed as it runs. The same engine then runs
// in-process, and the two accuracy matrices are compared cell by cell: the
// delta-encoded networked path is not an approximation of the local one,
// it is the same computation.
//
// A second networked run then demonstrates bounded-staleness async
// rounds: an fl.AsyncRunner with staleness window S=1 over the same
// transport, with deterministically simulated stragglers whose results
// report one round late at half FedAvg weight. That run's matrix is
// printed for comparison — it legitimately differs from the synchronous
// one, because lagging results change the aggregation set of each round
// (bit-identity is only guaranteed at S=0 or with no stragglers). A third
// run makes one worker really slow and lags every result one round: the
// coordinator dispatches round r+1 while round r's acks are still in
// flight, and the per-round overlap ratio shows how much collection time
// ran concurrently with later rounds.
//
//	go run ./examples/tcp_federation
//
// -metrics ADDR serves the telemetry registry's Prometheus /metrics page
// and the net/http/pprof endpoints for the duration of the demo (the CI
// smoke test scrapes both);
// -metrics-linger keeps the process alive that long after the runs finish
// so an external scraper can read the final counter values.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"reffil/internal/data"
	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/fl/transport"
	"reffil/internal/metrics"
	"reffil/internal/model"
	"reffil/internal/telemetry"
)

const (
	numWorkers = 2
	methodFlag = "reffil"
	seed       = 2025
	algSeed    = 7
)

var (
	metricsAddr   = flag.String("metrics", "", "serve a Prometheus /metrics page and /debug/pprof/ on this address (empty disables)")
	metricsLinger = flag.Duration("metrics-linger", 0, "keep the process alive this long after the runs finish so /metrics can be scraped")

	sink *telemetry.Sink
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcp_federation:", err)
		os.Exit(1)
	}
}

func config() fl.Config {
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
		Seed:              seed,
	}
}

func newAlg(family *data.Family, tasks int) (fl.Algorithm, error) {
	return experiments.NewMethodFromFlag(methodFlag, model.DefaultConfig(family.Classes), tasks, algSeed)
}

func run() error {
	// Telemetry covers the first networked run; the demo's later passes
	// rerun the same mechanics, so one instrumented run is enough for the
	// CI metrics smoke test to reconcile against.
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		sink = telemetry.NewSink(reg, nil)
		bound, err := reg.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		fmt.Printf("metrics listening on http://%s/metrics\n", bound)
	}

	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		return err
	}
	domains := family.Domains[:2]

	// Networked run: the engine schedules, the transport Pipeline fans out
	// delta-encoded broadcasts and accounts every byte.
	alg, err := newAlg(family, len(domains))
	if err != nil {
		return err
	}
	pl, stop, err := federation(family, len(domains), alg, sink, nil)
	if err != nil {
		return err
	}
	pl.OnRound = func(rs transport.RoundStats) {
		fmt.Printf("  [wire] task %d round %d: broadcast %d B, uploads %d B (%d patch/%d full), frames %d full/%d delta/%d idle\n",
			rs.Task, rs.Round, rs.BroadcastBytes, rs.UploadBytes, rs.PatchUploads, rs.StateUploads,
			rs.FullFrames, rs.DeltaFrames, rs.IdleFrames)
	}
	eng, err := fl.NewEngineWithRunner(config(), alg, pl)
	if err != nil {
		return err
	}
	eng.Progress = func(msg string) { fmt.Println("  " + msg) }
	eng.Telemetry = sink
	tcpMat, err := eng.Run(family, domains)
	stop()
	if err != nil {
		return err
	}

	// Reference run: identical engine, in-process worker pool.
	ref, err := newAlg(family, len(domains))
	if err != nil {
		return err
	}
	localEng, err := fl.NewEngine(config(), ref)
	if err != nil {
		return err
	}
	localMat, err := localEng.Run(family, domains)
	if err != nil {
		return err
	}

	st := pl.Stats()
	fmt.Printf("wire totals (codec delta): broadcast %d B, uploads %d B (%d patch/%d full) over %d rounds, %d full-snapshot fallbacks\n",
		st.BroadcastBytes, st.UploadBytes, st.PatchUploads, st.StateUploads, st.Rounds, st.Fallbacks)
	printMatrix("over TCP", tcpMat)
	printMatrix("in-process", localMat)
	for t := range tcpMat.A {
		for i := 0; i <= t; i++ {
			if math.Float64bits(tcpMat.A[t][i]) != math.Float64bits(localMat.A[t][i]) {
				return fmt.Errorf("matrices diverged at [%d][%d]: TCP %v vs local %v",
					t, i, tcpMat.A[t][i], localMat.A[t][i])
			}
		}
	}
	fmt.Println("delta-encoded networked run and in-process run are bit-identical")

	if err := runAsync(family, domains); err != nil {
		return err
	}
	if err := runOverlap(family, domains); err != nil {
		return err
	}
	if *metricsLinger > 0 {
		fmt.Printf("lingering %v for /metrics scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	return nil
}

// federation listens on loopback, joins numWorkers worker goroutines
// (worker 1 runs slow before each ack when non-nil) and returns a
// delta-codec Pipeline over them for alg. stop closes the pipeline, says
// goodbye to the workers and waits for them to exit.
func federation(family *data.Family, tasks int, alg fl.Algorithm, tel *telemetry.Sink, slow func(fl.JobSpec)) (*transport.Pipeline, func(), error) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	coord.SetTelemetry(tel)
	var wg sync.WaitGroup
	for id := 0; id < numWorkers; id++ {
		var straggle func(fl.JobSpec)
		if id == 1 {
			straggle = slow
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := worker(coord.Addr(), id, family, tasks, straggle); err != nil {
				fmt.Fprintf(os.Stderr, "worker %d: %v\n", id, err)
			}
		}(id)
	}
	pl, err := transport.NewPipeline(coord, alg)
	if err == nil {
		err = pl.UseCodec("delta")
	}
	if err == nil {
		err = coord.Accept(numWorkers, 10*time.Second)
	}
	if err != nil {
		coord.Close()
		wg.Wait()
		return nil, nil, err
	}
	pl.Telemetry = tel
	fmt.Printf("coordinator on %s: %d workers connected\n", coord.Addr(), numWorkers)
	stop := func() {
		// Closed before the goodbye: collectors must not count the
		// teardown as worker deaths. The goodbye is best-effort: a dead
		// worker connection must not discard a completed run.
		_ = pl.Close()
		if err := coord.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
		}
		wg.Wait()
		coord.Close()
	}
	return pl, stop, nil
}

// runAsync reruns the federation over TCP with bounded-staleness rounds:
// simulated stragglers lag one round and report with discounted weight.
func runAsync(family *data.Family, domains []string) error {
	alg, err := newAlg(family, len(domains))
	if err != nil {
		return err
	}
	pl, stop, err := federation(family, len(domains), alg, nil, nil)
	if err != nil {
		return err
	}
	async := &fl.AsyncRunner{
		Inner:     pl,
		Staleness: 1,
		// A third of the (round, client) pairs lag one round, deterministically.
		Delay: fl.StragglerDelay(seed, 0.33, 1),
	}
	eng, err := fl.NewEngineWithRunner(config(), alg, async)
	if err != nil {
		stop()
		return err
	}
	mat, err := eng.Run(family, domains)
	stop()
	if err != nil {
		return err
	}
	fmt.Printf("\nbounded-staleness rerun (S=1, ~33%% stragglers, %d results dropped):\n", async.Dropped())
	printMatrix("async over TCP", mat)
	fmt.Println("async matrices may legitimately differ from the synchronous run: stragglers shift each round's aggregation set")
	return nil
}

// runOverlap demonstrates pipelined round execution: worker 1 really
// sleeps before each ack, and the coordinator's Delay policy marks every
// result as lagging one round — results stay in flight on the wire while
// the next round dispatches, and are awaited only at admission.
func runOverlap(family *data.Family, domains []string) error {
	alg, err := newAlg(family, len(domains))
	if err != nil {
		return err
	}
	pl, stop, err := federation(family, len(domains), alg, nil, func(fl.JobSpec) { time.Sleep(60 * time.Millisecond) })
	if err != nil {
		return err
	}
	pl.OnRound = func(rs transport.RoundStats) {
		fmt.Printf("  [pipe] task %d round %d: dispatch %.1fms, last ack %.1fms, overlap %.0f%%\n",
			rs.Task, rs.Round, float64(rs.DispatchNanos)/1e6, float64(rs.LastAckNanos)/1e6,
			rs.OverlapRatio()*100)
	}
	async := &fl.AsyncRunner{
		Inner:     pl,
		Staleness: 1,
		// Worker assignment is round-robin by job index, so odd-indexed jobs
		// land on the slow worker; lag every result one round so none is
		// awaited before its computation had a full extra round of wall
		// clock to finish in the background.
		Delay: func(round int, spec fl.JobSpec) int { return 1 },
	}
	eng, err := fl.NewEngineWithRunner(config(), alg, async)
	if err != nil {
		stop()
		return err
	}
	mat, err := eng.Run(family, domains)
	stop()
	if err != nil {
		return err
	}
	fmt.Printf("pipelined S=1 rerun with a slow worker (%d results dropped):\n", async.Dropped())
	printMatrix("pipelined S=1 over TCP", mat)
	fmt.Println("every result lagged one round, so collection overlapped the next dispatch instead of blocking it")
	return nil
}

func printMatrix(label string, mat *metrics.Matrix) {
	fmt.Printf("accuracy matrix %s:\n", label)
	mat.FprintTriangle(os.Stdout)
}

// worker is one federation participant machine: dial, construct the same
// method with the same construction seed, and serve job broadcasts. A
// non-nil straggle runs before each ack — the real-slowness simulation of
// the overlap demo.
func worker(addr string, id int, family *data.Family, tasks int, straggle func(fl.JobSpec)) error {
	alg, err := newAlg(family, tasks)
	if err != nil {
		return err
	}
	ex, err := transport.NewExecutor(alg, 0)
	if err != nil {
		return err
	}
	ex.Straggle = straggle
	w, err := transport.Dial(addr, id)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Serve(ex.Handle)
}
