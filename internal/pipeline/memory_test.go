package pipeline_test

import (
	"runtime"
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// parkedHeap runs one online car stream whose SDD keeps up with a third
// of its 30 FPS, behind a capture buffer of the given size, and returns
// the live heap and the number of frames parked in the buffer ten
// seconds in.
func parkedHeap(t *testing.T, buffer int) (heap int64, parked int) {
	clk := vclock.NewVirtual()
	sys := build(t, clk, 1, 0.1, 330, func(c *pipeline.Config) {
		costs := device.Calibrated()
		sdd := costs[device.ModelSDD]
		sdd.PerFrame = 100 * time.Millisecond
		costs[device.ModelSDD] = sdd
		c.Costs = costs
		c.Mode = pipeline.Online
		c.IngestBuffer = buffer
	})
	sys.Start()
	clk.Go("probe", func() {
		clk.Sleep(10 * time.Second)
		parked = sys.Snapshot().Streams[0].Backlog
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap = int64(ms.HeapAlloc)
	})
	clk.Run()
	return heap, parked
}

// TestParkedFramesHoldNoPlanes: a frame waiting in the capture buffer
// costs its capture record, not its 77 KB pixel plane, so the live heap
// of a back-pressured stream is flat in the buffer's size — under 1 KB
// a parked frame between a buffer of 1 and one of 300.
func TestParkedFramesHoldNoPlanes(t *testing.T) {
	parkedHeap(t, 300) // fill the pools a run draws from, as both runs below find them
	small, few := parkedHeap(t, 1)
	large, many := parkedHeap(t, 300)
	if many-few < 150 {
		t.Fatalf("%d frames parked behind a buffer of 300 and %d behind one of 1: the stream is not back-pressured", many, few)
	}
	per := (large - small) / int64(many-few)
	t.Logf("%d vs %d parked frames: %d vs %d live heap bytes, %d a parked frame", many, few, large, small, per)
	if per > 1024 {
		t.Errorf("a parked frame holds %d heap bytes, want at most 1 KB (a plane is %d)", per, 320*240)
	}
}

// TestStreamReleasesDetectorAtLastVerdict: the pipeline drops a stream's
// T-YOLO state at its last verdict, not before — while a fragment of the
// stream still ingests or holds undecided frames on the instance, a
// sibling fragment that ran its source dry does not release it. Here the
// first fragment of stream 7 is stopped mid-burst with frames still
// parked and continues, on the same instance, as a short fragment that
// may finish first.
func TestStreamReleasesDetectorAtLastVerdict(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
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
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	long := cam.Stream(7, tg, lab.StreamOptions{Seed: 71, Frames: 450, TOR: 1.0})
	other := cam.Stream(8, tg, lab.StreamOptions{Seed: 81, Frames: 90})
	sys := pipeline.New(cfg, []pipeline.StreamSpec{long, other})
	sys.Hold()
	sys.Start()
	// complete applies the release rule to one snapshot.
	complete := func(sn pipeline.Snapshot, id int) bool {
		dry := false
		for _, ss := range sn.Streams {
			if ss.ID != id {
				continue
			}
			if !ss.IngestDone || ss.Decided != ss.Ingested {
				return false
			}
			dry = dry || ss.Ingested == int64(ss.Frames)
		}
		return dry
	}
	var sawContinuationDone bool
	clk.Go("manager", func() {
		clk.Sleep(6 * time.Second)
		rem, src, next, ok := sys.StopStream(7)
		if !ok || rem <= 0 {
			t.Errorf("StopStream(7) = %d remaining, ok=%v", rem, ok)
			sys.Release()
			return
		}
		cont := long
		cont.Source, cont.Frames, cont.SeqBase = src, 15, next
		sys.AddStream(cont)
		sys.Release()
		for !sys.Finished() {
			clk.Sleep(10 * time.Millisecond)
			sn := sys.Snapshot()
			for _, id := range []int{7, 8} {
				if done, held := complete(sn, id), tg.Registered(id); done == held {
					t.Errorf("t=%v: stream %d complete=%v but detector state held=%v", clk.Now(), id, done, held)
				}
			}
			for _, ss := range sn.Streams {
				if ss.ID == 7 && ss.Frames == 15 && ss.IngestDone && ss.Decided == ss.Ingested && !complete(sn, 7) {
					sawContinuationDone = true
				}
			}
		}
	})
	clk.Run()
	if !sawContinuationDone {
		t.Error("the continuation never finished while its stopped sibling still held frames; the case is not exercised")
	}
	for _, id := range []int{7, 8} {
		if tg.Registered(id) {
			t.Errorf("stream %d finished but its detector state is held", id)
		}
	}
}

// TestStoppedFragmentReleasedAndCompletionsListed: the stream-end rule
// for a fragment that never ran dry and for streams that did. Stream 7
// is stopped mid-burst with frames still in flight and not continued
// here — as a migration leaves its source instance — so its detector
// state must go at its last verdict, not before, and it must not count
// as completed. Streams 8 and 9 run dry and Completed lists them in
// completion order, once.
func TestStoppedFragmentReleasedAndCompletionsListed(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
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
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	sys := pipeline.New(cfg, []pipeline.StreamSpec{
		cam.Stream(7, tg, lab.StreamOptions{Seed: 71, Frames: 450, TOR: 1.0}),
		cam.Stream(8, tg, lab.StreamOptions{Seed: 81, Frames: 90}),
		cam.Stream(9, tg, lab.StreamOptions{Seed: 91, Frames: 30}),
	})
	sys.Hold()
	sys.Start()
	sawInFlight := false
	clk.Go("manager", func() {
		clk.Sleep(6 * time.Second)
		if rem, _, _, ok := sys.StopStream(7); !ok || rem <= 0 {
			t.Errorf("StopStream(7) = %d remaining, ok=%v", rem, ok)
		}
		sys.Release()
		for !sys.Finished() {
			clk.Sleep(10 * time.Millisecond)
			ss := sys.Snapshot().Streams[0]
			drained := ss.IngestDone && ss.Decided == ss.Ingested
			sawInFlight = sawInFlight || !drained
			if held := tg.Registered(7); held == drained {
				t.Errorf("t=%v: stopped stream 7 drained=%v but detector state held=%v", clk.Now(), drained, held)
			}
		}
	})
	clk.Run()
	if !sawInFlight {
		t.Error("stream 7 had no frame in flight after its stop; the release is not exercised")
	}
	if got := sys.Completed(nil); len(got) != 2 || got[0] != 9 || got[1] != 8 {
		t.Errorf("Completed = %v, want [9 8]", got)
	}
	if got := sys.Completed(nil); len(got) != 0 {
		t.Errorf("second Completed = %v, want nothing new", got)
	}
}
