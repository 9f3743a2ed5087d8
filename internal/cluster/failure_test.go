package cluster

import (
	"strings"
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// checkDetectorOwnership asserts that each stream's background model
// lives on no instance but the last one the event ledger placed it on.
func checkDetectorOwnership(t *testing.T, c *Cluster, rep *Report) {
	t.Helper()
	for id, inst := range lastOwners(rep) {
		for j := range c.tgs {
			if j != inst && c.tgs[j].Registered(id) {
				t.Errorf("stream %d lives on instance %d but its background is still registered on %d", id, inst, j)
			}
		}
	}
}

func TestInstanceCrashRecovery(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 2)
	cfg.Horizon = 35 * time.Second
	cfg.Faults = []faults.Fault{{Kind: faults.InstanceCrash, Instance: 0, From: 8 * time.Second}}
	cl := New(cfg, arrivals(t, cam, 4, 450, 2*time.Second))
	rep := cl.Run()

	if rep.Failures() != 1 {
		for _, e := range rep.Events {
			t.Logf("event: %v", e)
		}
		t.Fatalf("failures = %d, want 1", rep.Failures())
	}
	if !rep.Instances[0].Crashed {
		t.Error("instance 0's report does not mark the crash")
	}
	// Admission alternates, so instance 0 held two streams at the crash;
	// both must be re-forwarded to the survivor.
	if rep.Recoveries() != 2 {
		for _, e := range rep.Events {
			t.Logf("event: %v", e)
		}
		t.Fatalf("recoveries = %d, want 2", rep.Recoveries())
	}
	// Conservation across the crash: every frame of every stream is
	// decided exactly once — on the dead instance (including in-flight
	// frames drained to DropError) or on its continuation.
	for id, n := range rep.StreamFrames {
		if n != 450 {
			t.Errorf("stream %d decided %d frames across fragments, want 450", id, n)
		}
	}
	checkDetectorOwnership(t, cl, rep)
}

func TestInstanceCrashDeterministic(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int, int, map[int]int64) {
		clk := vclock.NewVirtual()
		cfg := DefaultConfig(clk, 2)
		cfg.Horizon = 35 * time.Second
		cfg.Faults = []faults.Fault{{Kind: faults.InstanceCrash, Instance: 0, From: 8 * time.Second}}
		rep := New(cfg, arrivals(t, cam, 4, 450, 2*time.Second)).Run()
		return rep.Failures(), rep.Recoveries(), rep.StreamFrames
	}
	f1, r1, s1 := run()
	f2, r2, s2 := run()
	if f1 != f2 || r1 != r2 {
		t.Fatalf("nondeterministic failure handling: (%d,%d) vs (%d,%d)", f1, r1, f2, r2)
	}
	for id, n := range s1 {
		if s2[id] != n {
			t.Errorf("stream %d: %d vs %d frames across runs", id, n, s2[id])
		}
	}
}

func TestAllInstancesDeadDegrades(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 1)
	cfg.Horizon = 30 * time.Second
	cfg.Faults = []faults.Fault{{Kind: faults.InstanceCrash, Instance: 0, From: 5 * time.Second}}
	// Two streams before the crash; a third arrives after the only
	// instance is dead and must be refused, not wedge the manager.
	arr := arrivals(t, cam, 2, 450, time.Second)
	arr = append(arr, Arrival{
		At:     12 * time.Second,
		ID:     999,
		Frames: 450,
		Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
			return cam.Stream(999, tg, lab.StreamOptions{Seed: 9999, Frames: 450})
		},
	})
	rep := New(cfg, arr).Run()

	if rep.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", rep.Failures())
	}
	if rep.Recoveries() != 0 {
		t.Fatalf("recoveries = %d, want 0 (no live instance left)", rep.Recoveries())
	}
	if rep.Admissions() != 2 {
		t.Fatalf("admissions = %d, want 2 (post-crash arrival dropped)", rep.Admissions())
	}
	// The abandoned streams still satisfy per-fragment conservation
	// (Report panics otherwise) but could not finish.
	for _, id := range []int{100, 101} {
		if n := rep.StreamFrames[id]; n <= 0 || n >= 450 {
			t.Errorf("stream %d decided %d frames, want a partial (0, 450) count", id, n)
		}
	}
	if _, ok := rep.StreamFrames[999]; ok {
		t.Error("dropped arrival 999 has a frame count")
	}
	// The refusal is recorded once, and its whole budget is charged.
	if len(rep.Rejections) != 1 || rep.Rejections[0].StreamID != 999 || rep.Rejections[0].Frames != 450 {
		t.Errorf("rejections = %+v, want one for stream 999 with 450 frames", rep.Rejections)
	}
	var rejects []Event
	for _, e := range rep.Events {
		if e.Kind == EventReject {
			rejects = append(rejects, e)
		}
	}
	if len(rejects) != 1 || !strings.HasSuffix(rejects[0].String(), "reject stream 999 (no live instance)") {
		t.Errorf("reject events = %v, want one reading \"reject stream 999 (no live instance)\"", rejects)
	}
	if got := rep.Drops[pipeline.DropAdmission]; got != 450 {
		t.Errorf("DropAdmission = %d, want arrival 999's 450", got)
	}
	// Cluster-wide conservation: with the abandoned streams' un-ingested
	// remainders charged to DropError, every offered frame has exactly
	// one disposition.
	var total int64
	for _, n := range rep.Drops {
		total += n
	}
	if want := int64(3 * 450); total != want {
		t.Errorf("disposition ledger sums to %d frames, want %d offered", total, want)
	}
}

func TestClusterDeviceSlowdownBindsToInstance(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 2)
	cfg.Horizon = 25 * time.Second
	// Slow only instance 1's devices; instance 0 must stay clean.
	cfg.Faults = []faults.Fault{{
		Kind: faults.DeviceSlow, Instance: 1, Device: "cpu",
		From: 0, Until: time.Hour, Factor: 2,
	}}
	rep := New(cfg, arrivals(t, cam, 2, 300, 2*time.Second)).Run()

	if rep.Instances[0].FaultsInjected != 0 {
		t.Errorf("instance 0 charged %d fault adjustments, want 0", rep.Instances[0].FaultsInjected)
	}
	if rep.Instances[1].FaultsInjected == 0 {
		t.Error("instance 1 never charged a fault adjustment despite its 2× CPU slowdown")
	}
	for id, n := range rep.StreamFrames {
		if n != 300 {
			t.Errorf("stream %d decided %d frames, want 300", id, n)
		}
	}
}

// TestRecoveredStreamsSplitTheirTierCounts runs README's crash command
// (two instances, four 600-frame streams a second apart, instance 1
// crashing at 8 s): a recovered stream's fragments share its filters,
// so each instance must count the frames its own fragments gave them,
// not the filters' whole-stream totals. Summed over instances, the
// SDD and SNM tier counts are then each stream's filter totals, and no
// instance filters more frames than it ingested.
func TestRecoveredStreamsSplitTheirTierCounts(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(vclock.NewVirtual(), 2)
	cfg.Horizon = 40 * time.Second
	cfg.Faults = []faults.Fault{{Kind: faults.InstanceCrash, Instance: 1, From: 8 * time.Second}}
	rep := New(cfg, arrivals(t, cam, 4, 600, time.Second)).Run()
	if rep.Recoveries() == 0 {
		t.Fatal("no stream was recovered; the crash recipe no longer moves a stream")
	}

	var sdd, snm int64 // the streams' own filter totals
	seen := map[int]bool{}
	var tiers [3]int64
	for i, ir := range rep.Instances {
		if ir.StageProcessed[1] > ir.StageProcessed[0] {
			t.Errorf("instance %d: SDD processed %d frames of %d ingested", i, ir.StageProcessed[1], ir.StageProcessed[0])
		}
		for k := range tiers {
			tiers[k] += ir.StageProcessed[1+k]
		}
		for _, sr := range ir.Streams {
			if !seen[sr.ID] {
				seen[sr.ID] = true
				sdd += sr.SDDStats.Processed
				snm += sr.SNMStats.Processed
			}
		}
	}
	if tiers[0] != sdd || tiers[1] != snm {
		t.Errorf("instances count SDD %d and SNM %d frames; the streams' filters processed %d and %d",
			tiers[0], tiers[1], sdd, snm)
	}
}
