package cluster

import (
	"testing"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// watchLiveDetectorState makes every manager observation check that no
// unfinished stream has lost its background model on the instance that
// runs it — a release that came too early would go unnoticed otherwise,
// because Detect quietly starts a fresh model from the next frame. A
// stream is finished when the instance's own snapshot says so: the
// pipeline releases at the stream's last verdict, before the manager's
// next tick marks it done.
func watchLiveDetectorState(t *testing.T, cfg *Config, cl **Cluster) {
	cfg.OnSnapshot = func(inst int, sn pipeline.Snapshot) {
		c := *cl
		for id, at := range c.loc {
			if at == inst && !completedIn(&sn, id) && !c.tgs[inst].Registered(id) {
				t.Errorf("t=%v: stream %d runs on instance %d without its background model",
					c.cfg.Clock.Now(), id, inst)
			}
		}
	}
}

// completedIn reports whether an instance snapshot shows stream id
// complete by the pipeline's rule: every fragment of it has stopped
// ingesting and decided all it ingested, and one ran its source dry.
func completedIn(sn *pipeline.Snapshot, id int) bool {
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

// checkDetectorsEmpty asserts that no instance's detector holds state
// for any stream the cluster ever placed.
func checkDetectorsEmpty(t *testing.T, c *Cluster) {
	t.Helper()
	for id := range c.loc {
		if _, live := c.owners[id]; live {
			t.Errorf("stream %d never completed", id)
		}
		for j, tg := range c.tgs {
			if tg.Registered(id) {
				t.Errorf("stream %d finished but instance %d still holds its background model", id, j)
			}
		}
	}
}

// TestFinishedStreamsReleaseDetectorState is the regression test for
// the completed-stream leak: a stream that simply ran to its end kept
// its 346 KB background model in the instance's detector for the life of
// the instance, because only migration and failure ever unregistered.
func TestFinishedStreamsReleaseDetectorState(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	const streams, frames = 200, 6
	cfg := DefaultConfig(vclock.NewVirtual(), 4)
	cfg.Horizon = 5 * time.Second
	cfg.Pipeline.Costs = device.CostModel{}
	var cl *Cluster
	watchLiveDetectorState(t, &cfg, &cl)
	cl = New(cfg, arrivals(t, cam, streams, frames, 5*time.Millisecond))
	rep := cl.Run()

	if got := rep.Admissions(); got != streams {
		t.Fatalf("admissions = %d, want %d", got, streams)
	}
	for id, n := range rep.StreamFrames {
		if n != frames {
			t.Errorf("stream %d decided %d frames, want %d", id, n, frames)
		}
	}
	checkDetectorsEmpty(t, cl)
}

// TestMigratedStreamReleasedOnBothInstances re-forwards a stream under
// overload and lets it finish on the target: its model must stay on the
// target for as long as it runs there, and be gone from the source (once
// the stopped fragment drained) and from the target (on completion) at
// the end.
func TestMigratedStreamReleasedOnBothInstances(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(vclock.NewVirtual(), 2)
	cfg.Horizon = 40 * time.Second
	cfg.OverloadChecks = 2
	costs := device.Calibrated()
	c := costs[device.ModelRef]
	c.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = c
	cfg.Pipeline.Costs = costs
	var cl *Cluster
	watchLiveDetectorState(t, &cfg, &cl)
	cl = New(cfg, arrivals(t, cam, 3, 900, 500*time.Millisecond))
	rep := cl.Run()

	if rep.Reforwards() == 0 {
		t.Fatal("no re-forward occurred; the overload recipe no longer triggers")
	}
	for id, n := range rep.StreamFrames {
		if n != 900 {
			t.Errorf("stream %d decided %d frames across fragments, want 900", id, n)
		}
	}
	checkDetectorsEmpty(t, cl)
}
