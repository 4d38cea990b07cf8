package main

import (
	"testing"

	"reffil/internal/experiments"
	"reffil/internal/fl"
	"reffil/internal/model"
)

// uploadOnly is a method that codes uploads but carries no wire state, so
// the wrapper's upload-only variant is exercised too.
type uploadOnly struct{ fl.Algorithm }

func (uploadOnly) EncodeUpload(fl.Upload) ([]byte, error) { return nil, nil }
func (uploadOnly) DecodeUpload([]byte) (fl.Upload, error) { return nil, nil }

func TestWrapExposesTheSameOptionalInterfaces(t *testing.T) {
	family, _, err := newFamily()
	if err != nil {
		t.Fatal(err)
	}
	var algs []fl.Algorithm
	for _, name := range []string{"Finetune", "FedLwF", "RefFiL"} {
		alg, err := experiments.NewMethod(name, model.DefaultConfig(family.Classes), tasks, 1)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, alg)
	}
	algs = append(algs, uploadOnly{algs[0]})
	same := func(inner, got fl.Algorithm) {
		_, ws := inner.(fl.WireStater)
		_, uc := inner.(fl.UploadCoder)
		_, gotWS := got.(fl.WireStater)
		_, gotUC := got.(fl.UploadCoder)
		if ws != gotWS || uc != gotUC {
			t.Errorf("%T wrapped as %T: WireStater %v->%v, UploadCoder %v->%v", inner, got, ws, gotWS, uc, gotUC)
		}
	}
	for _, inner := range algs {
		wrapped := wrap(inner, &hooks{rec: newRecorder(1), count: &counters{}})
		same(inner, wrapped)
		rep, err := wrapped.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		innerRep, err := inner.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		same(innerRep, rep)
	}
}

// small shrinks a workload to a few rounds for tests.
func small(w *workload) *workload {
	c := *w
	c.config = func(seed int64) fl.Config {
		cfg := w.config(seed)
		cfg.Rounds = 2
		if !w.tcp {
			cfg.Rounds, cfg.Epochs, cfg.TrainPerDomain, cfg.TestPerDomain = 1, 1, 48, 16
		}
		return cfg
	}
	return &c
}

// TestTracedRunMatchesUnwrapped proves the traced run measures the same
// program: the wrapped, traced federation produces the unwrapped one's
// accuracy matrix bit for bit and moves the same bytes per round.
func TestTracedRunMatchesUnwrapped(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := small(w)
			plain := *traced
			plain.plain = true
			want := plain.federation(7, nil, t.TempDir())
			rec := newRecorder(1)
			got := traced.federation(7, rec, t.TempDir())
			if want.err != nil || got.err != nil {
				t.Fatalf("unwrapped: %v, traced: %v", want.err, got.err)
			}
			if err := sameMatrix(got.mat, want.mat); err != nil {
				t.Fatal(err)
			}
			if len(got.marks) == 0 || got.jobs == 0 {
				t.Errorf("traced run recorded %d round marks and %d jobs", len(got.marks), got.jobs)
			}
			if _, err := replay(traced, 7, rec, got.ckptPath, t.TempDir()); err != nil {
				t.Errorf("replay: %v", err)
			}
			if !w.tcp {
				return
			}
			gotB := float64(got.wireBytes) / float64(got.rounds)
			wantB := float64(want.wireBytes) / float64(want.rounds)
			// Under a staleness window the pipelined acks batch by timing,
			// which moves a few hundred bytes of gob framing per run.
			tol := 0.0
			if w.staleness > 0 {
				tol = 0.005 * wantB
			}
			if d := gotB - wantB; d > tol || -d > tol {
				t.Errorf("wire bytes per round: traced %.1f, unwrapped %.1f", gotB, wantB)
			}
		})
	}
}
