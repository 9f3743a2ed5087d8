package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestSharedNetInferAcrossGoroutines is the contract that lets a
// camera's streams share one trained net: eight goroutines run Infer on
// it at once, at batch sizes 1 to 10, and each gets the bits its own
// clone of the net computes. Run with -race: Infer must not write to the
// layers.
func TestSharedNetInferAcrossGoroutines(t *testing.T) {
	shared := snmNet(rand.New(rand.NewSource(78)), 50)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			own := shared.Clone()
			for i := 0; i < 20; i++ {
				x := randTensor(rng, 1+(g+i)%10, 1, 50, 50)
				got, want := shared.Infer(x), own.Infer(x)
				for j := range want.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
						t.Errorf("goroutine %d, call %d: logit %d is %v on the shared net, %v on a clone", g, i, j, got.Data[j], want.Data[j])
						break
					}
				}
				got.Release()
				want.Release()
			}
		}()
	}
	wg.Wait()
}

// TestPooledTensorsUnderConcurrentStreams drives one net per goroutine
// against the shared tensor pool, checking each stream's inference stays
// bitwise-stable while buffers recycle across streams. Run with -race.
func TestPooledTensorsUnderConcurrentStreams(t *testing.T) {
	const streams, iters = 6, 30
	x := randTensor(rand.New(rand.NewSource(3)), 4, 1, 50, 50)
	// Reference output from a pristine net with the same seed.
	want := snmNet(rand.New(rand.NewSource(77)), 50).Infer(x)
	defer want.Release()

	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := snmNet(rand.New(rand.NewSource(77)), 50)
			for i := 0; i < iters; i++ {
				out := net.Infer(x)
				for j := range out.Data {
					if out.Data[j] != want.Data[j] {
						t.Errorf("iter %d: element %d drifted: %v vs %v",
							i, j, out.Data[j], want.Data[j])
						out.Release()
						return
					}
				}
				out.Release()
			}
		}()
	}
	wg.Wait()
}

// TestInferDoesNotReleaseCallerInput guards the ownership protocol: the
// net releases its intermediates but never the caller's input, even when
// the input itself came from the pool.
func TestInferDoesNotReleaseCallerInput(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := snmNet(rng, 50)
	x := GetTensor(2, 1, 50, 50)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	snapshot := append([]float32(nil), x.Data...)
	out := net.Infer(x)
	out.Release()
	if x.Data == nil {
		t.Fatal("Infer released the caller's input tensor")
	}
	for i := range snapshot {
		if x.Data[i] != snapshot[i] {
			t.Fatalf("input element %d mutated", i)
		}
	}
	x.Release()
}

// TestPooledTensorAllocsIndependentOfGC: a warm GetTensorDirty/Release
// pair allocates nothing, with collections between iterations — the
// backing array stays filed in the pool, which the collector no longer
// empties (it cost the array again after every cycle), Put no longer
// boxes the slice, and the header comes back with its shape's storage
// (the last two allocations of the warm pair until now).
func TestPooledTensorAllocsIndependentOfGC(t *testing.T) {
	GetTensorDirty(1, 1, 50, 50).Release()
	allocs := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		GetTensorDirty(1, 1, 50, 50).Release()
	})
	if allocs != 0 {
		t.Fatalf("GetTensorDirty+Release: %v allocations, want 0", allocs)
	}
}
