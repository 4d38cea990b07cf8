package model

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"reffil/internal/autograd"
	"reffil/internal/nn"
	"reffil/internal/opt"
	"reffil/internal/tensor"
)

// TestWarmTrainStepReusesTapeStorage gates the allocation-free training
// step: once one step has released its tape, the next step recycles that
// storage, so a warm step allocates at most a quarter of the bytes of the
// first (cold) one. What remains is the tape's bookkeeping: nodes,
// closures, shapes and tensor headers.
func TestWarmTrainStepReusesTapeStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is calibrated for uninstrumented builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Two collections empty the free list (sync.Pool keeps a victim
	// generation), so the first step below really is cold.
	runtime.GC()
	runtime.GC()

	rng := rand.New(rand.NewSource(3))
	b, err := New(DefaultConfig(7), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(rng, 1, 8, 3, b.Cfg.ImageSize, b.Cfg.ImageSize)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 0}
	sgd, err := opt.NewSGD(b.Params(), 0.01, 0.9, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &nn.Ctx{Train: true}
	step := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sgd.ZeroGrad()
		logits, err := b.Forward(ctx, autograd.Constant(x), nil)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := autograd.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := autograd.Backward(loss); err != nil {
			t.Fatal(err)
		}
		sgd.Step()
		autograd.Release(loss)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := step()
	step()
	if warm := step(); 4*warm > cold {
		t.Fatalf("warm step allocated %d bytes, cold step %d: want at most a quarter", warm, cold)
	} else {
		t.Logf("cold step %d bytes, warm step %d bytes", cold, warm)
	}
}
