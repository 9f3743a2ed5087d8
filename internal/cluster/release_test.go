package cluster

import (
	"testing"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// watchDetectorState makes every manager observation check the
// pipeline's release rule from both sides. No unfinished stream may
// have lost its background model on the instance that runs it — a
// release that came too early would go unnoticed otherwise, because
// Detect quietly starts a fresh model from the next frame. And once
// every fragment of a stream on an instance shows drained, that
// instance must hold no state for it, whether the stream completed
// there or left a stopped fragment behind. The returned counter tallies
// observations of such a left-behind fragment drained on its source
// instance, so a test can require the case was exercised.
func watchDetectorState(t *testing.T, cfg *Config, cl **Cluster) *int {
	leftBehind := new(int)
	cfg.OnSnapshot = func(inst int, sn pipeline.Snapshot) {
		c := *cl
		now := c.cfg.Clock.Now()
		frags := foldFragments(&sn)
		for id, at := range c.owners {
			if f := frags[id]; at == inst && !(f.drained && f.dry) && !c.tgs[inst].Registered(id) {
				t.Errorf("t=%v: stream %d runs on instance %d without its background model", now, id, inst)
			}
		}
		for id, f := range frags {
			if !f.drained {
				continue
			}
			if owner, live := c.owners[id]; live && owner != inst && !f.dry {
				*leftBehind++
			}
			if c.tgs[inst].Registered(id) {
				t.Errorf("t=%v: every fragment of stream %d on instance %d has drained, but its background model is held",
					now, id, inst)
			}
		}
	}
	return leftBehind
}

// fragFold is what an instance snapshot shows of one stream's
// fragments there: whether every one has stopped ingesting and decided
// all it ingested, and whether one ran its source dry.
type fragFold struct{ drained, dry bool }

// foldFragments folds an instance snapshot per stream ID.
func foldFragments(sn *pipeline.Snapshot) map[int]fragFold {
	out := make(map[int]fragFold)
	for _, ss := range sn.Streams {
		f, seen := out[ss.ID]
		f.drained = (f.drained || !seen) && ss.IngestDone && ss.Decided == ss.Ingested
		f.dry = f.dry || ss.Ingested == int64(ss.Frames)
		out[ss.ID] = f
	}
	return out
}

// lastOwners replays the event ledger: the last instance each placed
// stream was admitted, re-forwarded or recovered to.
func lastOwners(rep *Report) map[int]int {
	owner := make(map[int]int)
	for _, e := range rep.Events {
		switch e.Kind {
		case EventAdmit, EventReforward, EventRecover:
			owner[e.StreamID] = e.To
		}
	}
	return owner
}

// checkDetectorsEmpty asserts that every stream the cluster ever placed
// finished and that no instance's detector holds state for it: each
// detector's free list holds exactly the states it ever allocated, so
// none is registered, none was orphaned and none was filed twice. It
// returns how many states the detectors allocated in all.
func checkDetectorsEmpty(t *testing.T, c *Cluster, rep *Report) (made int) {
	t.Helper()
	for id := range lastOwners(rep) {
		if _, live := c.owners[id]; live {
			t.Errorf("stream %d never completed", id)
		}
		for j, tg := range c.tgs {
			if tg.Registered(id) {
				t.Errorf("stream %d finished but instance %d still holds its background model", id, j)
			}
		}
	}
	for j, tg := range c.tgs {
		m, free := tg.States()
		if free != m {
			t.Errorf("instance %d: detector made %d background states and holds %d on its free list", j, m, free)
		}
		made += m
	}
	return made
}

// TestFinishedStreamsReleaseDetectorState is the regression test for
// the completed-stream leak: a stream that simply ran to its end kept
// its 346 KB background model in the instance's detector for the life of
// the instance, because only re-forwarding and failure ever unregistered.
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
	watchDetectorState(t, &cfg, &cl)
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
	// An arrival after a completion on its instance takes the departed
	// stream's state: the detectors make far fewer than one per stream.
	if made := checkDetectorsEmpty(t, cl, rep); made == 0 || made >= streams/2 {
		t.Errorf("the detectors made %d background states for %d short streams; want some, and departed streams' states reused", made, streams)
	}
}

// TestMigratedStreamReleasedOnBothInstances re-forwards a stream under
// overload and lets it finish on the target: its model must stay on the
// target for as long as it runs there, be gone from the source as soon
// as a snapshot shows the stopped fragment drained, and be gone from
// the target on completion.
func TestMigratedStreamReleasedOnBothInstances(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(vclock.NewVirtual(), 2)
	cfg.Horizon = 40 * time.Second
	costs := device.Calibrated()
	c := costs[device.ModelRef]
	c.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = c
	cfg.Pipeline.Costs = costs
	var cl *Cluster
	leftBehind := watchDetectorState(t, &cfg, &cl)
	cl = New(cfg, arrivals(t, cam, 3, 900, 500*time.Millisecond))
	rep := cl.Run()

	if rep.Reforwards() == 0 {
		t.Fatal("no re-forward occurred; the overload recipe no longer triggers")
	}
	if *leftBehind == 0 {
		t.Error("no snapshot showed a stopped fragment drained on its source instance; the release there is not exercised")
	}
	for id, n := range rep.StreamFrames {
		if n != 900 {
			t.Errorf("stream %d decided %d frames across fragments, want 900", id, n)
		}
	}
	checkDetectorsEmpty(t, cl, rep)
}
