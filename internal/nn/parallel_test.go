package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ffsva/internal/par"
)

// bitwiseEqual compares two tensors exactly — no tolerance. The
// parallel kernels shard disjoint output regions without changing any
// per-element arithmetic, so every bit must match the serial loop.
func bitwiseEqual(t *testing.T, name string, serial, parallel *Tensor) {
	t.Helper()
	if len(serial.Data) != len(parallel.Data) {
		t.Fatalf("%s: length %d vs %d", name, len(serial.Data), len(parallel.Data))
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("%s: element %d differs: serial %v parallel %v",
				name, i, serial.Data[i], parallel.Data[i])
		}
	}
}

// runSerialAndParallel evaluates f once with the pool pinned to one
// worker and once with a wide pool, returning both results.
func runSerialAndParallel(f func() *Tensor) (serial, parallel *Tensor) {
	prev := par.SetWorkers(1)
	serial = f()
	par.SetWorkers(8)
	parallel = f()
	par.SetWorkers(prev)
	return serial, parallel
}

func TestConv2DParallelBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewConv2D(rng, 3, 8, 3, 1, 1)
	x := randTensor(rng, 2, 3, 17, 19) // odd sizes: uneven shards
	s, p := runSerialAndParallel(func() *Tensor { return c.Forward(x).Clone() })
	bitwiseEqual(t, "Conv2D.Forward", s, p)
	s, p = runSerialAndParallel(func() *Tensor { return c.Infer(x) })
	bitwiseEqual(t, "Conv2D.Infer", s, p)
}

func TestDenseParallelBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDense(rng, 301, 47)
	x := randTensor(rng, 5, 301)
	s, p := runSerialAndParallel(func() *Tensor { return d.Forward(x).Clone() })
	bitwiseEqual(t, "Dense.Forward", s, p)
	s, p = runSerialAndParallel(func() *Tensor { return d.Infer(x) })
	bitwiseEqual(t, "Dense.Infer", s, p)
}

func TestNetInferParallelBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := snmNet(rng, 50)
	x := randTensor(rng, 8, 1, 50, 50)
	s, p := runSerialAndParallel(func() *Tensor { return net.Infer(x) })
	bitwiseEqual(t, "Net.Infer", s, p)
	s.Release()
	p.Release()
}

// TestSharedNetInferAcrossGoroutines is the contract that lets a
// camera's streams share one trained net: eight goroutines run Infer on
// it at once, at batch sizes 1 to 10 on a two-worker pool, and each gets
// the bits its own clone of the net computes. Run with -race: Infer must
// not write to the layers.
func TestSharedNetInferAcrossGoroutines(t *testing.T) {
	shared := snmNet(rand.New(rand.NewSource(78)), 50)
	defer par.SetWorkers(par.SetWorkers(2))
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
// pair allocates the tensor header and its shape and nothing else, with
// collections between iterations — the backing array stays filed in the
// pool, which the collector no longer empties (it cost the array again
// after every cycle), and Put no longer boxes the slice (the third
// allocation of the warm pair until now).
func TestPooledTensorAllocsIndependentOfGC(t *testing.T) {
	GetTensorDirty(1, 1, 50, 50).Release()
	allocs := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		GetTensorDirty(1, 1, 50, 50).Release()
	})
	if allocs != 2 {
		t.Fatalf("GetTensorDirty+Release: %v allocations, want 2 (header and shape)", allocs)
	}
}
