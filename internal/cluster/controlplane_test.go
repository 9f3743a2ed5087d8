package cluster

import (
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// assertNoBounce checks the scheduler's cooldown contract against the
// event ledger: once a stream is placed (admission, re-forward or
// recovery), no discretionary move (a re-forward) touches it again
// within one window.
func assertNoBounce(t *testing.T, rep *Report, window time.Duration) {
	t.Helper()
	placed := map[int]time.Duration{}
	for _, e := range rep.Events {
		switch e.Kind {
		case EventAdmit, EventRecover:
			placed[e.StreamID] = e.At
		case EventReforward:
			if at, ok := placed[e.StreamID]; ok && e.At-at < window {
				t.Errorf("stream %d bounced %v after its last placement (< %v window): %v",
					e.StreamID, e.At-at, window, e)
			}
			placed[e.StreamID] = e.At
		}
	}
}

// assertSingleOwnership replays the event ledger and checks that every
// move names the stream's actual current instance as its source — the
// invariant that no stream is ever owned (and ingested) by two
// instances at once.
func assertSingleOwnership(t *testing.T, rep *Report) {
	t.Helper()
	owner := map[int]int{}
	for _, e := range rep.Events {
		switch e.Kind {
		case EventAdmit:
			if at, ok := owner[e.StreamID]; ok {
				t.Errorf("stream %d admitted twice (already on %d): %v", e.StreamID, at, e)
			}
			owner[e.StreamID] = e.To
		case EventReforward, EventRecover:
			if at, ok := owner[e.StreamID]; !ok || at != e.From {
				t.Errorf("stream %d moved from %d but lives on %d: %v", e.StreamID, e.From, at, e)
			}
			owner[e.StreamID] = e.To
		}
	}
}

// scaleArrivals mints n tiny simultaneous streams: everything arrives
// at t=0, so the whole set is concurrently live.
func scaleArrivals(cam *lab.Camera, n, frames int) []Arrival {
	out := make([]Arrival, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = Arrival{
			ID:     i,
			Frames: frames,
			Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
				return cam.Stream(i, tg, lab.StreamOptions{Seed: int64(4000 + i), Frames: frames})
			},
		}
	}
	return out
}

// TestThousandStreamScale drives 1,000 concurrent streams through a
// 4-instance cluster on the virtual clock and requires the scheduler's
// event ledger to be byte-identical across two runs — the determinism
// contract at the scale the paper's §4.3 targets.
func TestThousandStreamScale(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-stream run skipped in -short mode")
	}
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 1000
	frames := 10
	if raceDetectorOn {
		// The race detector serializes the virtual clock's context
		// switches; keep all 1,000 concurrent streams but shorten them.
		frames = 3
	}
	run := func() *Report {
		clk := vclock.NewVirtual()
		cfg := DefaultConfig(clk, 4)
		cfg.Horizon = 15 * time.Second
		// The scale contract under test is the control plane's, not the
		// filters': an empty cost model charges no stage time, so 10,000
		// frames stay cheap.
		cfg.Pipeline.Costs = device.CostModel{}
		return New(cfg, scaleArrivals(cam, streams, frames)).Run()
	}
	rep1 := run()
	if got := rep1.Admissions(); got != streams {
		t.Fatalf("admissions = %d, want %d", got, streams)
	}
	if got := rep1.Rejects(); got != 0 {
		t.Fatalf("%d arrivals rejected with every instance live", got)
	}
	for id := 0; id < streams; id++ {
		if n := rep1.StreamFrames[id]; n != int64(frames) {
			t.Fatalf("stream %d decided %d frames, want %d", id, n, frames)
		}
	}
	rep2 := run()
	if l1, l2 := rep1.EventLog(), rep2.EventLog(); l1 != l2 {
		t.Errorf("scheduler event log differs between two identical runs:\nrun1 %d bytes, run2 %d bytes",
			len(l1), len(l2))
	}
	assertNoBounce(t, rep1, checkEvery)
}

// TestCrashRecoveryKeepsOneOwnerAndEveryFrame crashes one of three
// instances mid-run and holds recovery to four checks: no stream is
// ever owned by two instances at once, none is bounced inside its
// cooldown, every stream's frames are decided exactly once across its
// fragments, and an identical rerun writes the same event log.
func TestCrashRecoveryKeepsOneOwnerAndEveryFrame(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		clk := vclock.NewVirtual()
		cfg := DefaultConfig(clk, 3)
		cfg.Horizon = 40 * time.Second
		cfg.Faults = []faults.Fault{{Kind: faults.InstanceCrash, Instance: 1, From: 8 * time.Second}}
		return New(cfg, arrivals(t, cam, 6, 450, time.Second)).Run()
	}
	rep := run()

	if rep.Failures() != 1 {
		t.Fatalf("failures = %d, want 1 (events:\n%s)", rep.Failures(), rep.EventLog())
	}
	if rep.Recoveries() == 0 {
		t.Fatalf("no stream recovered off the crashed instance (events:\n%s)", rep.EventLog())
	}
	assertSingleOwnership(t, rep)
	assertNoBounce(t, rep, checkEvery)
	// Conservation across the crash: every stream's frames are decided
	// exactly once across all its fragments.
	for id, n := range rep.StreamFrames {
		if n != 450 {
			t.Errorf("stream %d decided %d frames across fragments, want 450", id, n)
		}
	}
	// Determinism holds through crash detection and recovery.
	rep2 := run()
	if rep.EventLog() != rep2.EventLog() {
		t.Errorf("event log differs across identical crash runs:\n--- run1\n%s\n--- run2\n%s",
			rep.EventLog(), rep2.EventLog())
	}
}
