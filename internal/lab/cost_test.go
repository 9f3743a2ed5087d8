package lab

import (
	"runtime"
	"sync"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/imgproc"
	"ffsva/internal/pipeline"
	"ffsva/internal/vidgen"
)

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
// SNM's weights and scratch, its object dynamics and its private T-YOLO
// background estimate (346 KB of the total) — and none of what is the
// camera's: the rendered background plane, its copy and its resample
// (another 200 KB a stream before they were shared). TotalAlloc is a
// counter, so the reading does not depend on when the collector runs.
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

	const limit = 560 << 10
	got, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one more stream: %d bytes in %d allocations", got, allocs)
	if got > limit {
		t.Errorf("minting one more stream allocated %d bytes, limit %d", got, limit)
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
