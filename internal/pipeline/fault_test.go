package pipeline_test

import (
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/vclock"
)

// buildFaulty assembles a virtual-clock system of n car streams with a
// fault plan applied the way a single-instance run applies it: the
// injector drives AdjustService and wraps every stream's source.
func buildFaulty(t *testing.T, clk *vclock.VirtualClock, n int, tor float64, frames int, plan []faults.Fault, mutate func(*pipeline.Config)) *pipeline.System {
	t.Helper()
	cam, err := lab.CarCamera(tor)
	if err != nil {
		t.Fatal(err)
	}
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	cfg := pipeline.DefaultConfig(clk)
	inj := faults.NewInjector(faults.ForInstance(plan, 0))
	if len(plan) > 0 {
		cfg.AdjustService = inj.AdjustServiceTime
	}
	if mutate != nil {
		mutate(&cfg)
	}
	specs := make([]pipeline.StreamSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = cam.Stream(i, tg, lab.StreamOptions{Seed: int64(1000 + i), Frames: frames})
		specs[i].Source = inj.WrapSource(specs[i].Source, specs[i].ID)
	}
	return pipeline.New(cfg, specs)
}

// checkFaultConservation is frame conservation under failure: every
// ingested frame carries exactly one final disposition. (Frames lost to
// faults never reach the filters, so checkConservation's stage-to-stage
// identities do not apply here.)
func checkFaultConservation(t *testing.T, rep *pipeline.Report) {
	t.Helper()
	for _, sr := range rep.Streams {
		var sum int64
		for _, c := range sr.Counts {
			sum += c
		}
		if sum != sr.Ingested {
			t.Errorf("stream %d: dispositions %v sum %d, want ingested %d", sr.ID, sr.Counts, sum, sr.Ingested)
		}
	}
}

func TestDecodeRetryWithinBudget(t *testing.T) {
	clk := vclock.NewVirtual()
	// Three frames each fail twice; the default budget (2 retries)
	// recovers all of them.
	plan := []faults.Fault{{Kind: faults.DecodeError, Stream: 0, SeqFrom: 10, SeqTo: 13, Attempts: 2}}
	sys := buildFaulty(t, clk, 1, 0.103, 300, plan, nil)
	rep := sys.Run()
	// Every frame was eventually delivered, so full stage-to-stage
	// conservation still holds.
	checkConservation(t, rep)
	if got := rep.Streams[0].Counts[pipeline.DropError]; got != 0 {
		t.Errorf("recovered frames recorded %d DropError, want 0", got)
	}
	if rep.Retries != 6 {
		t.Errorf("retries = %d, want 6 (3 frames × 2 attempts)", rep.Retries)
	}
	if rep.FaultsInjected != 6 {
		t.Errorf("faults injected = %d, want 6", rep.FaultsInjected)
	}
}

func TestDecodeFailurePastBudgetDropsFrame(t *testing.T) {
	clk := vclock.NewVirtual()
	// Five consecutive failures exceed the 2-retry budget: the frame is
	// abandoned after the third failed attempt.
	plan := []faults.Fault{{Kind: faults.DecodeError, Stream: 0, SeqFrom: 10, SeqTo: 13, Attempts: 5}}
	sys := buildFaulty(t, clk, 1, 0.103, 300, plan, nil)
	rep := sys.Run()
	checkFaultConservation(t, rep)
	sr := rep.Streams[0]
	if sr.Ingested != 300 {
		t.Errorf("ingested %d frames, want 300 (lost frames still consume their slot)", sr.Ingested)
	}
	if got := sr.Counts[pipeline.DropError]; got != 3 {
		t.Errorf("DropError = %d, want 3", got)
	}
	if rep.Retries != 6 {
		t.Errorf("retries = %d, want 6 (2 within budget per frame)", rep.Retries)
	}
	if rep.FaultsInjected != 9 {
		t.Errorf("faults injected = %d, want 9 (3 failed attempts per frame)", rep.FaultsInjected)
	}
}

func TestCorruptFramesRejected(t *testing.T) {
	clk := vclock.NewVirtual()
	plan := []faults.Fault{{Kind: faults.CorruptFrame, Stream: 0, SeqFrom: 5, SeqTo: 10}}
	sys := buildFaulty(t, clk, 1, 0.103, 300, plan, nil)
	rep := sys.Run()
	checkFaultConservation(t, rep)
	sr := rep.Streams[0]
	if got := sr.Counts[pipeline.DropError]; got != 5 {
		t.Errorf("DropError = %d, want 5 corrupt frames rejected", got)
	}
	if rep.FaultsInjected != 5 {
		t.Errorf("faults injected = %d, want 5", rep.FaultsInjected)
	}
	// Corrupt frames are rejected before the SDD, so the filters only
	// saw the clean ones.
	if sr.SDDStats.Processed != sr.Ingested-5 {
		t.Errorf("SDD processed %d, want %d (corrupt frames bypass filtering)", sr.SDDStats.Processed, sr.Ingested-5)
	}
}

func TestCrashDrainsInFlightFrames(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := buildFaulty(t, clk, 2, 0.103, 450, nil, func(c *pipeline.Config) {
		c.Mode = pipeline.Online
		c.HeartbeatEvery = 500 * time.Millisecond
	})
	clk.Go("crash", func() {
		clk.Sleep(5 * time.Second)
		sys.Crash()
	})
	rep := sys.Run()
	if !rep.Crashed {
		t.Fatal("report does not mark the crash")
	}
	// Every frame ingested before the crash still gets a disposition —
	// in-flight frames drain to DropError instead of leaking (Report
	// panics on any hole in the ledger).
	checkFaultConservation(t, rep)
	for _, sr := range rep.Streams {
		if sr.Ingested >= int64(sr.Frames) {
			t.Errorf("stream %d ingested %d of %d frames despite crashing at 5s", sr.ID, sr.Ingested, sr.Frames)
		}
	}
	// The heartbeat froze at the crash; a cluster manager would see the
	// stamp go stale.
	if hb := sys.Heartbeat(); hb > 5*time.Second {
		t.Errorf("heartbeat advanced to %v after the 5s crash", hb)
	}
}

func TestSheddingBoundsLagUnderSlowdown(t *testing.T) {
	clk := vclock.NewVirtual()
	// The reference GPU runs at a tenth of its speed for the whole run:
	// at TOR 1.0 nearly every frame needs it, so the back-end falls
	// hopelessly behind and the capture buffer fills.
	plan := []faults.Fault{{
		Kind: faults.DeviceSlow, Device: "gpu1", Instance: 0,
		From: 0, Until: time.Hour, Factor: 10,
	}}
	sys := buildFaulty(t, clk, 1, 1.0, 450, plan, func(c *pipeline.Config) {
		c.Mode = pipeline.Online
		c.IngestBuffer = 60
		c.ShedAfter = 500 * time.Millisecond
	})
	rep := sys.Run()
	checkFaultConservation(t, rep)
	sr := rep.Streams[0]
	if sr.Ingested != 450 {
		t.Errorf("ingested %d frames, want all 450 — shedding must keep capture going", sr.Ingested)
	}
	if rep.ShedFrames == 0 {
		t.Error("no frames shed under a 10× reference slowdown")
	}
	if rep.FaultsInjected == 0 {
		t.Error("slowdown adjustments not counted as injected faults")
	}
	// The shedding bypass bounds ingest lateness near the threshold
	// instead of letting it grow with the backlog.
	if sr.IngestLag > 2*time.Second {
		t.Errorf("worst ingest lag %v despite shedding at 500ms", sr.IngestLag)
	}
}

func TestSheddingDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		clk := vclock.NewVirtual()
		plan := []faults.Fault{{
			Kind: faults.DeviceSlow, Device: "gpu1", Instance: 0,
			From: 0, Until: time.Hour, Factor: 10,
		}}
		sys := buildFaulty(t, clk, 1, 1.0, 300, plan, func(c *pipeline.Config) {
			c.Mode = pipeline.Online
			c.IngestBuffer = 60
			c.ShedAfter = 500 * time.Millisecond
		})
		rep := sys.Run()
		return rep.ShedFrames, rep.Streams[0].Counts[pipeline.Detected]
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Fatalf("nondeterministic shedding: (%d,%d) vs (%d,%d)", s1, d1, s2, d2)
	}
}

// TestTimelineErrorSignalsMatchReport couples the timeline's error
// signals to the pipeline's counters end to end: Recorder.Observe picks
// Retries, FaultsInjected and ShedFrames out of the snapshot's registry
// samples by name, so renaming a pipeline counter would zero the errors
// dimension of /bottleneck. A run with decode retries and shedding, fed
// to a recorder by Monitor, must end on a tick that agrees with the
// report.
func TestTimelineErrorSignalsMatchReport(t *testing.T) {
	clk := vclock.NewVirtual()
	plan := []faults.Fault{
		{Kind: faults.DecodeError, Stream: 0, SeqFrom: 10, SeqTo: 13, Attempts: 2},
		{Kind: faults.DeviceSlow, Device: "gpu1", Instance: 0, From: 0, Until: time.Hour, Factor: 10},
	}
	sys := buildFaulty(t, clk, 1, 1.0, 450, plan, func(c *pipeline.Config) {
		c.Mode = pipeline.Online
		c.IngestBuffer = 60
		c.ShedAfter = 500 * time.Millisecond
	})
	rec := timeline.New(timeline.Options{})
	sys.Monitor(250*time.Millisecond, func(sn pipeline.Snapshot) { rec.Observe(0, sn) })
	rep := sys.Run()
	ticks := rec.Query(0, 0, 0)
	if len(ticks) == 0 {
		t.Fatal("the monitor recorded no tick")
	}
	last := ticks[len(ticks)-1]
	if !last.Finished {
		t.Fatalf("last tick at %v is not the finished state", last.At)
	}
	for _, c := range []struct {
		name       string
		tick, want int64
	}{
		{"retries", last.Retries, rep.Retries},
		{"faults injected", last.FaultsInjected, rep.FaultsInjected},
		{"shed frames", last.ShedFrames, rep.ShedFrames},
	} {
		if c.want <= 0 {
			t.Errorf("report %s = %d; the run must exercise it", c.name, c.want)
		}
		if c.tick != c.want {
			t.Errorf("last tick %s = %d, report %d", c.name, c.tick, c.want)
		}
	}
}
