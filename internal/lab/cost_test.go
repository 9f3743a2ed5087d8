package lab

import (
	"runtime"
	"sync"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/pipeline"
	"ffsva/internal/vidgen"
)

// TestTrainingCostsWhatTheCorpusWeighs pins what training one camera
// allocates: the 1,500-sample corpus at 20 KB a frame (30 MB), the
// trainer's one set of step buffers, and small change — 35 MB in 35k
// objects, where keeping the clip and allocating every step's tensors
// fresh took 706 MB in 84k. TotalAlloc and Mallocs are counters, so the
// reading does not depend on when the collector runs. Every frame the
// training drew from the pool has gone back.
func TestTrainingCostsWhatTheCorpusWeighs(t *testing.T) {
	cfg := vidgen.Small(101, frame.ClassCar, 0.30) // CarCamera's template
	cfg.BGSeed = 101
	var before, after runtime.MemStats
	runtime.GC()
	gets0, puts0 := frame.PoolStats()
	runtime.ReadMemStats(&before)
	if _, err := trainCamera(cfg, 1500); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	gets, puts := frame.PoolStats()

	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("training one camera: %.1f MB in %d objects", float64(got)/1e6, objects)
	if got > 64<<20 || objects > 40_000 {
		t.Errorf("training one camera allocated %d bytes in %d objects, limits 64 MB and 40,000", got, objects)
	}
	if gets-gets0 != 1500 || gets-puts != gets0-puts0 {
		t.Errorf("training drew %d frames from the pool and returned %d, want 1500 and 1500", gets-gets0, puts-puts0)
	}
}

// sharedPlane is the background plane a minted stream renders from.
func sharedPlane(t *testing.T, spec pipeline.StreamSpec) *imgproc.Gray {
	t.Helper()
	src, ok := spec.Source.(*vidgen.Stream)
	if !ok {
		t.Fatalf("stream %d: source is a %T, want *vidgen.Stream", spec.ID, spec.Source)
	}
	return src.SharedBackground()
}

// TestMintCostsWhatTheStreamOwns pins the bytes one more stream of a
// warm camera allocates against a warm detector: its SDD reference, its
// object dynamics and its private T-YOLO background estimate (346 KB of
// the 440 KB) — and none of what is the camera's: the rendered
// background plane, its copy and its resample (another 200 KB a stream
// before they were shared), and the trained SNM net, which a stream
// used to clone along with its own column scratch (another 16 KB in 49
// allocations). TotalAlloc and Mallocs are counters, so the reading does
// not depend on when the collector runs.
func TestMintCostsWhatTheStreamOwns(t *testing.T) {
	cam, err := CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	first := cam.Stream(0, tg, StreamOptions{Seed: 5000, Frames: 15})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	second := cam.Stream(1, tg, StreamOptions{Seed: 5001, Frames: 15})
	runtime.ReadMemStats(&after)

	const limit, allocLimit = 448 << 10, 16
	got, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one more stream: %d bytes in %d allocations", got, allocs)
	if got > limit || allocs > allocLimit {
		t.Errorf("minting one more stream allocated %d bytes in %d objects, limits %d and %d", got, allocs, limit, allocLimit)
	}
	if sharedPlane(t, first) != sharedPlane(t, second) {
		t.Error("two streams of one camera render from different background planes")
	}
}

// TestConcurrentMintFromWarmCamera mints from one camera into one
// detector on eight goroutines, the way concurrent admissions reach the
// shared read-only artefacts; run it under -race.
func TestConcurrentMintFromWarmCamera(t *testing.T) {
	cam, err := CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	want := sharedPlane(t, cam.Stream(0, tg, StreamOptions{Seed: 6000, Frames: 15}))
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := g*10 + i
				spec := cam.Stream(id, tg, StreamOptions{Seed: int64(6000 + id), Frames: 15})
				spec.Source.Next().Release()
				if !tg.Registered(id) {
					t.Errorf("stream %d minted without detector state", id)
				}
				if src := spec.Source.(*vidgen.Stream); src.SharedBackground() != want {
					t.Errorf("stream %d renders from a plane of its own", id)
				}
			}
		}()
	}
	wg.Wait()
}
