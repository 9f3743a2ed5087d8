package cluster

import (
	"testing"
	"time"

	"ffsva/internal/cluster/sched"
	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// assertNoBounce checks the scheduler's cooldown contract against the
// event ledger: once a stream is placed (admission, re-forward,
// recovery, or migration), no discretionary move (re-forward or
// migration) touches it again within one window.
func assertNoBounce(t *testing.T, rep *Report, window time.Duration) {
	t.Helper()
	placed := map[int]time.Duration{}
	for _, e := range rep.Events {
		switch e.Kind {
		case EventAdmit, EventRecover:
			placed[e.StreamID] = e.At
		case EventReforward, EventMigrate:
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
		case EventReforward, EventRecover, EventMigrate:
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
// 4-instance cluster on the virtual clock, under both placement
// policies, and requires the scheduler's event ledger to be
// byte-identical across two runs of each — the determinism contract at
// the scale the paper's §4.3 targets.
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
	run := func(policy string) *Report {
		clk := vclock.NewVirtual()
		cfg := DefaultConfig(clk, 4)
		cfg.Horizon = 15 * time.Second
		cfg.Placement.Policy = policy
		// The scale contract under test is the control plane's, not the
		// filters': an empty cost model charges no stage time, so 10,000
		// frames stay cheap.
		cfg.Pipeline.Costs = device.CostModel{}
		return New(cfg, scaleArrivals(cam, streams, frames)).Run()
	}
	for _, policy := range []string{sched.PolicyLeastLoad, sched.PolicyHash} {
		rep1 := run(policy)
		if got := rep1.Admissions(); got != streams {
			t.Fatalf("%s: admissions = %d, want %d", policy, got, streams)
		}
		if got := rep1.Rejects(); got != 0 {
			t.Fatalf("%s: %d arrivals rejected with no quotas configured", policy, got)
		}
		for id := 0; id < streams; id++ {
			if n := rep1.StreamFrames[id]; n != int64(frames) {
				t.Fatalf("%s: stream %d decided %d frames, want %d", policy, id, n, frames)
			}
		}
		rep2 := run(policy)
		if l1, l2 := rep1.EventLog(), rep2.EventLog(); l1 != l2 {
			t.Errorf("%s: scheduler event log differs between two identical runs:\nrun1 %d bytes, run2 %d bytes",
				policy, len(l1), len(l2))
		}
		assertNoBounce(t, rep1, DefaultTuning().CheckEvery)
	}
}

// TestQuotaRejectionConservesFrames checks the admission-control path:
// a tenant at its quota has its arrival rejected with the frame budget
// charged to DropAdmission, the ledger still balances cluster-wide,
// and a completed stream frees the quota for a later arrival.
func TestQuotaRejectionConservesFrames(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 60 // 2 s per stream at 30 FPS
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 1)
	cfg.Horizon = 20 * time.Second
	cfg.Quotas.PerTenant = map[string]int{"acme": 1}
	mk := func(id int) func(tg *detect.TinyGrid) pipeline.StreamSpec {
		return func(tg *detect.TinyGrid) pipeline.StreamSpec {
			return cam.Stream(id, tg, lab.StreamOptions{Seed: int64(7000 + id), Frames: frames})
		}
	}
	arr := []Arrival{
		{At: 0, ID: 0, Tenant: "acme", Frames: frames, Make: mk(0)},
		// Arrives while stream 0 is live: over quota, rejected.
		{At: time.Second, ID: 1, Tenant: "acme", Frames: frames, Make: mk(1)},
		// Arrives well after stream 0 finished: quota freed, admitted.
		{At: 10 * time.Second, ID: 2, Tenant: "acme", Frames: frames, Make: mk(2)},
	}
	rep := New(cfg, arr).Run()

	if got := rep.Admissions(); got != 2 {
		t.Fatalf("admissions = %d, want 2 (events:\n%s)", got, rep.EventLog())
	}
	if got := rep.Rejects(); got != 1 {
		t.Fatalf("rejects = %d, want 1 (events:\n%s)", got, rep.EventLog())
	}
	if len(rep.Rejections) != 1 {
		t.Fatalf("rejections = %v, want one entry", rep.Rejections)
	}
	rj := rep.Rejections[0]
	if rj.StreamID != 1 || rj.Tenant != "acme" || rj.Reason != sched.RejectTenantQuota || rj.Frames != frames {
		t.Errorf("rejection = %+v, want stream 1, tenant acme, tenant-quota, %d frames", rj, frames)
	}
	if got := rep.Drops[pipeline.DropAdmission]; got != frames {
		t.Errorf("DropAdmission ledger = %d, want %d", got, frames)
	}
	// Cluster-wide conservation: every offered frame — 3 streams' worth
	// — has exactly one disposition.
	var total int64
	for _, n := range rep.Drops {
		total += n
	}
	if want := int64(3 * frames); total != want {
		t.Errorf("disposition ledger sums to %d frames, want %d", total, want)
	}
}

// TestElasticScaleUpDown starves a single instance under busy streams
// until the scheduler grows the fleet, then lets the work finish and
// checks the idle extra instance is retired back down to the floor.
func TestElasticScaleUpDown(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 1)
	cfg.Horizon = 50 * time.Second
	cfg.OverloadChecks = 2
	cfg.Elastic = sched.ElasticConfig{
		Max: 3, Min: 1,
		ScaleUpAfter:   2 * time.Second,
		ScaleDownAfter: 3 * time.Second,
	}
	// The overload recipe: a slow reference model makes co-located busy
	// streams swamp the lone instance.
	costs := device.Calibrated()
	ref := costs[device.ModelRef]
	ref.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = ref
	cfg.Pipeline.Costs = costs

	rep := New(cfg, arrivals(t, cam, 3, 450, time.Second)).Run()

	if rep.ScaleUps() < 1 {
		t.Fatalf("no scale-up under sustained overload (events:\n%s)", rep.EventLog())
	}
	if rep.ScaleDowns() < 1 {
		t.Fatalf("no scale-down after drain (events:\n%s)", rep.EventLog())
	}
	for id, n := range rep.StreamFrames {
		if n != 450 {
			t.Errorf("stream %d decided %d frames across fragments, want 450", id, n)
		}
	}
	assertNoBounce(t, rep, cfg.CheckEvery)
	assertSingleOwnership(t, rep)
}

// TestMigrationDuringCrash opens the rebalance window with an injected
// instance crash under hash placement: recovery continuations and
// guests-going-home migrations interleave, and no stream may ever be
// owned by two instances at once or lose frames.
func TestMigrationDuringCrash(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		clk := vclock.NewVirtual()
		cfg := DefaultConfig(clk, 3)
		cfg.Horizon = 40 * time.Second
		cfg.Placement.Policy = sched.PolicyHash
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
	assertNoBounce(t, rep, DefaultTuning().CheckEvery)
	// Conservation across crash + migrations: every stream's frames are
	// decided exactly once across all its fragments.
	for id, n := range rep.StreamFrames {
		if n != 450 {
			t.Errorf("stream %d decided %d frames across fragments, want 450", id, n)
		}
	}
	// Determinism holds through the crash-and-migrate interleaving.
	rep2 := run()
	if rep.EventLog() != rep2.EventLog() {
		t.Errorf("event log differs across identical crash runs:\n--- run1\n%s\n--- run2\n%s",
			rep.EventLog(), rep2.EventLog())
	}
}
