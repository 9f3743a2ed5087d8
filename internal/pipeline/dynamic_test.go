package pipeline_test

import (
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// TestAddStreamMidRun admits a stream into a running system via a manager
// process holding the shared stages open.
func TestAddStreamMidRun(t *testing.T) {
	cam, err := lab.CarCamera(0.2)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := pipeline.DefaultConfig(clk)
	cfg.Mode = pipeline.Online
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	first := cam.Stream(0, tg, lab.StreamOptions{Seed: 11, Frames: 300})
	sys := pipeline.New(cfg, []pipeline.StreamSpec{first})
	sys.Hold()
	sys.Start()
	clk.Go("manager", func() {
		clk.Sleep(3 * time.Second)
		sys.AddStream(cam.Stream(1, tg, lab.StreamOptions{Seed: 12, Frames: 150}))
		sys.Release()
	})
	clk.Run()
	rep := sys.Report()
	if len(rep.Streams) != 2 {
		t.Fatalf("streams = %d", len(rep.Streams))
	}
	for _, sr := range rep.Streams {
		for seq, rec := range sr.Records {
			if !rec.Done {
				t.Fatalf("stream %d frame %d undecided", sr.ID, seq)
			}
		}
	}
	// The second stream began ~3s into the run.
	if rep.Streams[1].FirstCapture < 3*time.Second {
		t.Fatalf("added stream started at %v", rep.Streams[1].FirstCapture)
	}
}

// TestStopStreamAndContinue migrates a stream within one system by
// stopping it and admitting a continuation with the proper SeqBase.
func TestStopStreamAndContinue(t *testing.T) {
	cam, err := lab.CarCamera(0.2)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := pipeline.DefaultConfig(clk)
	cfg.Mode = pipeline.Online
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	spec := cam.Stream(0, tg, lab.StreamOptions{Seed: 21, Frames: 300})
	sys := pipeline.New(cfg, []pipeline.StreamSpec{spec})
	sys.Hold()
	sys.Start()
	var remaining int64
	clk.Go("manager", func() {
		clk.Sleep(4 * time.Second)
		rem, src, nextSeq, ok := sys.StopStream(0)
		if !ok {
			t.Error("StopStream failed")
			sys.Release()
			return
		}
		remaining = rem
		cont := spec
		cont.ID = 100
		cont.Source = src
		cont.Frames = int(rem)
		cont.SeqBase = nextSeq
		sys.AddStream(cont)
		sys.Release()
	})
	clk.Run()
	rep := sys.Report()
	if remaining <= 0 || remaining >= 300 {
		t.Fatalf("remaining = %d, want a mid-run stop", remaining)
	}
	var done int64
	for _, sr := range rep.Streams {
		for _, rec := range sr.Records {
			if rec.Done {
				done++
			}
		}
	}
	if done != 300 {
		t.Fatalf("decided %d frames across fragments, want 300", done)
	}
}

// TestStopUnknownStream returns ok=false.
func TestStopUnknownStream(t *testing.T) {
	cam, err := lab.CarCamera(0.2)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := pipeline.DefaultConfig(clk)
	sys := pipeline.New(cfg, []pipeline.StreamSpec{
		cam.Stream(0, nil, lab.StreamOptions{Seed: 31, Frames: 60}),
	})
	sys.Hold()
	sys.Start()
	clk.Go("manager", func() {
		if _, _, _, ok := sys.StopStream(42); ok {
			t.Error("StopStream(42) succeeded for unknown id")
		}
		sys.Release()
	})
	clk.Run()
}

// TestEmptySystemWithHoldDrains proves a held system with no streams
// shuts down cleanly on Release.
func TestEmptySystemWithHoldDrains(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := pipeline.New(pipeline.DefaultConfig(clk), nil)
	sys.Hold()
	sys.Start()
	clk.Go("manager", func() {
		clk.Sleep(time.Second)
		sys.Release()
	})
	clk.Run()
	rep := sys.Report()
	if rep.TotalFrames != 0 || len(rep.Streams) != 0 {
		t.Fatalf("empty system report: %+v", rep)
	}
}

// TestWorstBacklogVisible verifies the overload-backlog signal: with a
// reference tier too slow for a TOR-1.0 stream, frames pile up in the
// capture buffer, and the snapshot's WorstBacklog must show them — for
// a lone stream, exactly its capture-buffer depth plus spilled frames.
func TestWorstBacklogVisible(t *testing.T) {
	cam, err := lab.CarCamera(1.0)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := pipeline.DefaultConfig(clk)
	cfg.Mode = pipeline.Online
	costs := device.Calibrated()
	ref := costs[device.ModelRef]
	ref.PerFrame = 120 * time.Millisecond
	costs[device.ModelRef] = ref
	cfg.Costs = costs
	sys := pipeline.New(cfg, []pipeline.StreamSpec{
		cam.Stream(0, detect.NewTinyGrid(detect.DefaultTinyGridConfig()), lab.StreamOptions{Seed: 41, Frames: 240, TOR: 1.0}),
	})
	sys.Hold()
	sys.Start()
	saw := 0
	clk.Go("monitor", func() {
		for i := 0; i < 7; i++ {
			clk.Sleep(time.Second)
			sn := sys.Snapshot()
			ss := sn.Streams[0]
			if want := ss.SDDQ.Depth + ss.SpillPending; sn.WorstBacklog != want {
				t.Errorf("t=%v: WorstBacklog = %d, want the stream's capture depth + spill = %d", clk.Now(), sn.WorstBacklog, want)
			}
			if sn.WorstBacklog > 0 {
				saw++
			}
		}
		sys.Release()
	})
	clk.Run()
	if saw == 0 {
		t.Error("no sample showed a capture backlog behind the slow reference tier")
	}
	t.Logf("backlog observed in %d/7 samples", saw)
}
