package pipeline_test

import (
	"fmt"
	"runtime"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// TestWarmFrameAllocatesNothing pins the steady state of the frame
// path: once the free lists are warm, a frame from capture to verdict —
// capture record and header, SDD, the SNM batch, T-YOLO with its
// candidates, the reference tier per frame or packed onto canvases —
// allocates nothing. Two runs that differ only in length are measured
// after a warm-up run, and their difference in heap objects, divided by
// the frames it adds, cancels what building a system and its streams
// costs — the shorter run already sends frames of every stream down
// every stage, so the scratch a stream grows on first use is paid by
// both. It runs the two offline workloads' cameras (a car camera at
// TOR 0.1, where the SDD drops most frames, and a person camera at TOR
// 1.0, where most reach T-YOLO and the reference tier), each with the
// per-frame reference tier and under consolidation. Before the capture
// record and frame header were recycled and the per-frame headers and
// result slices went, the benchmark's offline_hightor workload, which
// runs that person camera, read 15.86 objects a frame.
func TestWarmFrameAllocatesNothing(t *testing.T) {
	cameras := []struct {
		name        string
		cam         func(float64) (*lab.Camera, error)
		tor         float64
		short, long int
	}{
		{"car_tor0.1", lab.CarCamera, 0.1, 600, 1800},
		{"person_tor1", lab.PersonCamera, 1.0, 200, 600},
	}
	const streams = 2
	for _, c := range cameras {
		cam, err := c.cam(c.tor)
		if err != nil {
			t.Fatal(err)
		}
		for _, consolidate := range []bool{false, true} {
			run := func(frames int) (mallocs uint64, rep *pipeline.Report) {
				cfg := pipeline.DefaultConfig(vclock.NewVirtual())
				cfg.Mode = pipeline.Offline
				cfg.BatchPolicy = pipeline.BatchDynamic
				cfg.BatchSize = 10
				cfg.Consolidate = consolidate
				tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
				specs := make([]pipeline.StreamSpec, streams)
				for i := range specs {
					specs[i] = cam.Stream(i, tg, lab.StreamOptions{Seed: int64(4000 + i), Frames: frames})
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rep = pipeline.New(cfg, specs).Run()
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, rep
			}
			name := fmt.Sprintf("%s consolidate=%v", c.name, consolidate)
			run(c.long) // warm the free lists
			pools := pipeline.ReadPools()
			a, short := run(c.short)
			b, _ := run(c.long)
			if msg := pools.Unbalanced(); msg != "" {
				t.Errorf("%s: %s", name, msg)
			}
			for _, sr := range short.Streams {
				if sr.Counts[pipeline.Detected] == 0 {
					t.Fatalf("%s: no frame of stream %d reached the reference tier in %d frames; the runs no longer cover the whole path", name, sr.ID, c.short)
				}
			}
			per := (float64(b) - float64(a)) / float64(streams*(c.long-c.short))
			t.Logf("%s: %d and %d heap objects for %d and %d frames: %.4f a frame", name, a, b, streams*c.short, streams*c.long, per)
			if per > 0.05 {
				t.Errorf("%s: a warm frame allocates %.3f heap objects, want at most 0.05", name, per)
			}
		}
	}
}
