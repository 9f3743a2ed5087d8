package cluster

import (
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/filters"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// arrivals mints n identical car streams joining at the given spacing.
func arrivals(t *testing.T, cam *lab.Camera, n, frames int, spacing time.Duration) []Arrival {
	t.Helper()
	out := make([]Arrival, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = Arrival{
			At: time.Duration(i) * spacing,
			ID: 100 + i,
			Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
				return cam.Stream(100+i, tg, lab.StreamOptions{Seed: int64(9000 + i), Frames: frames})
			},
		}
	}
	return out
}

func TestAdmissionSpreadsStreams(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 2)
	cfg.Horizon = 25 * time.Second
	cl := New(cfg, arrivals(t, cam, 4, 450, 2*time.Second))
	rep := cl.Run()

	if rep.Admissions() != 4 {
		t.Fatalf("admissions = %d, want 4", rep.Admissions())
	}
	perInstance := map[int]int{}
	for _, e := range rep.Events {
		if e.Kind == EventAdmit {
			perInstance[e.To]++
		}
	}
	if perInstance[0] == 0 || perInstance[1] == 0 {
		t.Fatalf("admission did not spread: %v", perInstance)
	}
	// Every stream's frames must be fully processed somewhere.
	for id, n := range rep.StreamFrames {
		if n != 450 {
			t.Errorf("stream %d processed %d frames, want 450", id, n)
		}
	}
	if !rep.Realtime {
		t.Error("lightly loaded cluster lost real-time")
	}
}

func TestReforwardUnderOverload(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 2)
	cfg.Horizon = 40 * time.Second
	// Slow the reference model so two co-located streams overload one
	// instance but a 2/1 split can still carry them.
	costs := device.Calibrated()
	c := costs[device.ModelRef]
	c.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = c
	cfg.Pipeline.Costs = costs

	// Three streams arriving quickly: two land on one instance.
	cl := New(cfg, arrivals(t, cam, 3, 900, 500*time.Millisecond))
	rep := cl.Run()

	if rep.Admissions() != 3 {
		t.Fatalf("admissions = %d, want 3", rep.Admissions())
	}
	if rep.Reforwards() == 0 {
		for _, e := range rep.Events {
			t.Logf("event: %v", e)
		}
		for i, ir := range rep.Instances {
			t.Logf("instance %d: %v", i, ir)
		}
		t.Fatal("expected at least one re-forward under overload")
	}
	// Conservation across fragments: every frame decided exactly once.
	for id, n := range rep.StreamFrames {
		if n != 900 {
			t.Errorf("stream %d processed %d frames across fragments, want 900", id, n)
		}
	}
}

func TestDeterministicCluster(t *testing.T) {
	cam, err := lab.CarCamera(0.2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int, int) {
		clk := vclock.NewVirtual()
		cfg := DefaultConfig(clk, 2)
		cfg.Horizon = 20 * time.Second
		rep := New(cfg, arrivals(t, cam, 3, 300, time.Second)).Run()
		return rep.Admissions(), rep.Reforwards()
	}
	a1, r1 := run()
	a2, r2 := run()
	if a1 != a2 || r1 != r2 {
		t.Fatalf("nondeterministic cluster: (%d,%d) vs (%d,%d)", a1, r1, a2, r2)
	}
}

func TestSingleInstanceNoReforward(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk, 1)
	cfg.Horizon = 20 * time.Second
	rep := New(cfg, arrivals(t, cam, 2, 300, time.Second)).Run()
	if rep.Reforwards() != 0 {
		t.Fatal("single instance cannot re-forward")
	}
	if rep.Admissions() != 2 {
		t.Fatalf("admissions = %d", rep.Admissions())
	}
}

// TestReforwardKeepsEachBatchsVerdicts: a re-forwarded stream's old
// fragment drains its SNM queue while its T-YOLO queue is full, and its
// continuation runs the same SNM on the target instance meanwhile.
// Each fragment must route its frames by its own batch's verdicts: a
// frame the run dropped at the SNM is one the SNM drops, and a frame
// that went on is one it passes, exactly as frame-by-frame Process
// calls on a fresh copy of the stream decide.
func TestReforwardKeepsEachBatchsVerdicts(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(vclock.NewVirtual(), 2)
	cfg.Horizon = 40 * time.Second
	// The slow reference model of TestReforwardUnderOverload backs the
	// overloaded instance's queues up to its SNM stages.
	costs := device.Calibrated()
	c := costs[device.ModelRef]
	c.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = c
	cfg.Pipeline.Costs = costs
	const frames = 900
	rep := New(cfg, arrivals(t, cam, 3, frames, 500*time.Millisecond)).Run()
	if rep.Reforwards() == 0 {
		t.Fatal("no re-forward: the run does not exercise a shared SNM")
	}

	moved := map[int]bool{}
	for _, e := range rep.Events {
		if e.Kind == EventReforward {
			moved[e.StreamID] = true
		}
	}
	for i := range 3 {
		id := 100 + i
		disp := make([]pipeline.Disposition, frames)
		seen := make([]bool, frames)
		for _, ir := range rep.Instances {
			for _, sr := range ir.Streams {
				if sr.ID != id {
					continue
				}
				for _, r := range sr.Records {
					if r.Done {
						disp[r.Seq], seen[r.Seq] = r.Disposition, true
					}
				}
			}
		}
		ref := cam.Stream(id, nil, lab.StreamOptions{Seed: int64(9000 + i), Frames: frames})
		checked := 0
		for seq := range frames {
			f := ref.Source.Next()
			if !seen[seq] {
				t.Fatalf("stream %d: frame %d has no record", id, seq)
			}
			var passed bool
			switch disp[seq] {
			case pipeline.DropSNM:
			case pipeline.DropTYolo, pipeline.Detected:
				passed = true
			default: // never reached the SNM, or left by a fault
				f.Release()
				continue
			}
			v := ref.SNM.Process(f)
			f.Release()
			if (v == filters.Pass) != passed {
				t.Errorf("stream %d (moved %v): frame %d ended %v, but the SNM says %v", id, moved[id], seq, disp[seq], v)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("stream %d: no frame reached the SNM", id)
		}
	}
}
