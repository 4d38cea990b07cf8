package tensor_test

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"reffil/internal/core"
	"reffil/internal/data"
	"reffil/internal/fl"
	"reffil/internal/nn"
	"reffil/internal/tensor"
)

// TestPoisonedFreeListChangesNothing trains the same warm RefFiL steps
// (L_CE, GPL and DPCL all active) on two identical replicas: one whose
// every recycled buffer starts as NaN, one that starts from an empty free
// list. Any kernel that reads recycled storage before writing it would
// leak NaN or stale numbers into the parameters; they must agree bit for
// bit.
func TestPoisonedFreeListChangesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	family, err := data.NewFamily("pacs", 16)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := family.Generate(family.Domains[1], 24, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	train.SetTask(1)
	global, err := core.New(core.DefaultConfig(family.Classes, 4), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	localTrain := func(alg fl.Algorithm) fl.Upload {
		t.Helper()
		up, err := alg.LocalTrain(&fl.LocalContext{
			Task: 1, ClientTask: 1, Group: fl.GroupInBetween, Data: train,
			Epochs: 1, BatchSize: 8, LR: 0.05, Rng: rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return up
	}
	spawn := func() fl.Algorithm {
		t.Helper()
		rep, err := global.Spawn()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// Populate the prompt bank so the GPL and DPCL terms join the loss.
	if err := global.OnTaskStart(1); err != nil {
		t.Fatal(err)
	}
	up := localTrain(spawn())
	if err := global.ServerRound(1, 0, []fl.Upload{up}); err != nil {
		t.Fatal(err)
	}
	poisoned, clean := spawn(), spawn()

	// A warm-up replica leaves one step's buffers in the free list.
	localTrain(spawn())
	if tensor.PoisonFreeList() == 0 {
		t.Fatal("warm-up left nothing in the free list to poison")
	}
	upPoisoned := localTrain(poisoned)
	tensor.EmptyFreeList()
	upClean := localTrain(clean)

	requireSameBits(t, poisoned.Global(), clean.Global())
	a, b := upPoisoned.(*core.PromptUpload), upClean.(*core.PromptUpload)
	if len(a.ByClass) != len(b.ByClass) {
		t.Fatalf("uploads cover %d vs %d classes", len(a.ByClass), len(b.ByClass))
	}
	for k, va := range a.ByClass {
		for i, v := range va {
			if math.Float64bits(v) != math.Float64bits(b.ByClass[k][i]) {
				t.Fatalf("upload class %d element %d: %v vs %v", k, i, v, b.ByClass[k][i])
			}
		}
	}
}

// requireSameBits compares every parameter and buffer of two structurally
// identical modules by math.Float64bits.
func requireSameBits(t *testing.T, a, b nn.Module) {
	t.Helper()
	sa, sb := nn.StateDict(a), nn.StateDict(b)
	if len(sa) != len(sb) {
		t.Fatalf("state dicts have %d vs %d entries", len(sa), len(sb))
	}
	for name, ta := range sa {
		da, db := ta.Data(), sb[name].Data()
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, da[i], db[i])
			}
		}
	}
}
