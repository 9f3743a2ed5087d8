package detect

import (
	"runtime"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

func TestOracleMatchesTruth(t *testing.T) {
	s := vidgen.New(vidgen.Small(1, frame.ClassCar, 0.3))
	o := NewOracle(OracleConfig{MissRate: 0, MinVisible: 0})
	for i := 0; i < 2000; i++ {
		f := s.Next()
		dets := o.Detect(f)
		if got, want := Count(dets, frame.ClassCar, 0.2), f.Truth.TargetCount(frame.ClassCar); got != want {
			t.Fatalf("frame %d: oracle count %d, truth %d", i, got, want)
		}
	}
}

func TestOracleMissRateDeterministic(t *testing.T) {
	s := vidgen.New(vidgen.Small(2, frame.ClassCar, 0.5))
	frames := vidgen.Generate(s, 500)
	o := NewOracle(OracleConfig{MissRate: 0.2, MinVisible: 0.01})
	count := func() int {
		n := 0
		for _, f := range frames {
			n += len(o.Detect(f))
		}
		return n
	}
	a, b := count(), count()
	if a != b {
		t.Fatalf("oracle nondeterministic: %d vs %d", a, b)
	}
	// With a 20% miss rate, detections must be visibly fewer than truth.
	truth := 0
	for _, f := range frames {
		truth += len(f.Truth.Boxes)
	}
	if a >= truth || truth == 0 {
		t.Fatalf("miss rate had no effect: det=%d truth=%d", a, truth)
	}
}

func TestOracleSkipsInvisible(t *testing.T) {
	f := frame.New(100, 100)
	f.Truth = &frame.Annotation{Boxes: []frame.Box{
		{X: 0, Y: 0, W: 10, H: 10, Class: frame.ClassCar, Visible: 0.05},
		{X: 50, Y: 50, W: 10, H: 10, Class: frame.ClassCar, Visible: 1.0},
	}}
	o := NewOracle(DefaultOracleConfig())
	dets := o.Detect(f)
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1 (invisible box skipped)", len(dets))
	}
}

func TestOracleNilTruth(t *testing.T) {
	o := NewOracle(DefaultOracleConfig())
	if dets := o.Detect(frame.New(10, 10)); dets != nil {
		t.Fatalf("nil-truth frame produced detections: %v", dets)
	}
}

// runTinyGrid feeds n frames through the detector and compares counted
// targets against ground truth per frame, returning (framesAgreeing,
// framesWithTargets, totalDetected, totalTruth) over frames where truth
// has fully visible targets.
func tinyGridAgreement(t *testing.T, cfg vidgen.Config, n int, confThresh float64) (agree, total int) {
	t.Helper()
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	for i := 0; i < n; i++ {
		f := s.Next()
		dets := tg.Detect(f)
		// Only score frames where every target is solidly visible; edge
		// partials are a designed weakness tested separately.
		truthN := 0
		allVisible := true
		for _, b := range f.Truth.Boxes {
			if b.Class == cfg.Target {
				truthN++
				if b.Visible < 0.95 {
					allVisible = false
				}
			}
		}
		if truthN == 0 || !allVisible {
			continue
		}
		total++
		got := Count(dets, cfg.Target, confThresh)
		if got >= truthN {
			agree++
		}
	}
	return agree, total
}

func TestTinyGridDetectsVisibleCars(t *testing.T) {
	cfg := vidgen.Small(3, frame.ClassCar, 0.3)
	cfg.DistractorProb = 0
	cfg.MaxObjects = 1
	agree, total := tinyGridAgreement(t, cfg, 3000, 0.2)
	if total < 100 {
		t.Fatalf("too few scorable frames: %d", total)
	}
	if rate := float64(agree) / float64(total); rate < 0.85 {
		t.Fatalf("fully visible car detection rate = %.2f (%d/%d), want >= 0.85", rate, agree, total)
	}
}

func TestTinyGridMissesEdgePartials(t *testing.T) {
	cfg := vidgen.Small(4, frame.ClassCar, 0.3)
	cfg.StopProb = 1.0 // cars always stop partially visible at the edge
	cfg.DistractorProb = 0
	cfg.MaxObjects = 1
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	partialFrames, partialDetected := 0, 0
	for i := 0; i < 4000; i++ {
		f := s.Next()
		dets := tg.Detect(f)
		isPartial := false
		for _, b := range f.Truth.Boxes {
			if b.Class == frame.ClassCar && b.Visible < 0.6 {
				isPartial = true
			}
		}
		if !isPartial {
			continue
		}
		partialFrames++
		if Count(dets, frame.ClassCar, 0.2) > 0 {
			partialDetected++
		}
	}
	if partialFrames < 50 {
		t.Fatalf("too few partial frames: %d", partialFrames)
	}
	if rate := float64(partialDetected) / float64(partialFrames); rate > 0.5 {
		t.Fatalf("partial cars detected at rate %.2f, want <= 0.5 (T-YOLO weakness)", rate)
	}
}

func TestTinyGridUndercountsCrowds(t *testing.T) {
	cfg := vidgen.Small(5, frame.ClassPerson, 0.6)
	cfg.CrowdProb = 1.0
	cfg.CrowdSize = 8
	cfg.DistractorProb = 0
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	denseFrames, undercounted := 0, 0
	for i := 0; i < 4000; i++ {
		f := s.Next()
		dets := tg.Detect(f)
		truthN := f.Truth.TargetCount(frame.ClassPerson)
		if truthN < 4 {
			continue
		}
		denseFrames++
		if Count(dets, frame.ClassPerson, 0.2) < truthN {
			undercounted++
		}
	}
	if denseFrames < 50 {
		t.Fatalf("too few dense frames: %d", denseFrames)
	}
	if rate := float64(undercounted) / float64(denseFrames); rate < 0.5 {
		t.Fatalf("dense crowds undercounted at rate %.2f, want >= 0.5 (T-YOLO weakness)", rate)
	}
}

func TestTinyGridQuietOnBackground(t *testing.T) {
	cfg := vidgen.Small(6, frame.ClassCar, 0.1)
	cfg.DistractorProb = 0
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	bgFrames, falsePos := 0, 0
	for i := 0; i < 3000; i++ {
		f := s.Next()
		dets := tg.Detect(f)
		if len(f.Truth.Boxes) != 0 {
			continue
		}
		bgFrames++
		if Count(dets, frame.ClassCar, 0.2) > 0 {
			falsePos++
		}
	}
	if bgFrames < 500 {
		t.Fatalf("too few background frames: %d", bgFrames)
	}
	if rate := float64(falsePos) / float64(bgFrames); rate > 0.05 {
		t.Fatalf("background false-positive rate %.3f, want <= 0.05", rate)
	}
}

func TestTinyGridColdStartConverges(t *testing.T) {
	// Without SetBackground the detector must self-converge via its
	// warmup EMA and then stay quiet on background.
	cfg := vidgen.Small(7, frame.ClassCar, 0.05)
	cfg.DistractorProb = 0
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	for i := 0; i < 100; i++ { // warmup
		tg.Detect(s.Next())
	}
	bgFrames, falsePos := 0, 0
	for i := 0; i < 1000; i++ {
		f := s.Next()
		dets := tg.Detect(f)
		if len(f.Truth.Boxes) != 0 {
			continue
		}
		bgFrames++
		if len(dets) > 0 {
			falsePos++
		}
	}
	if bgFrames == 0 {
		t.Fatal("no background frames")
	}
	if rate := float64(falsePos) / float64(bgFrames); rate > 0.1 {
		t.Fatalf("cold-start background false-positive rate %.3f", rate)
	}
}

func TestCountThreshold(t *testing.T) {
	dets := []Detection{
		{Class: frame.ClassCar, Conf: 0.9},
		{Class: frame.ClassCar, Conf: 0.1},
		{Class: frame.ClassPerson, Conf: 0.9},
	}
	if got := Count(dets, frame.ClassCar, 0.2); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if got := Count(dets, frame.ClassCar, 0.05); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if got := Count(dets, frame.ClassBus, 0.05); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
}

func TestGridCellCap(t *testing.T) {
	// Construct a frame whose truth-independent foreground creates many
	// blobs in one cell region is hard to force deterministically via
	// vidgen; instead verify the cap constant is honored by Detect's
	// output: no more than MaxBoxesPerCell detections share a cell.
	cfg := vidgen.Small(8, frame.ClassPerson, 0.8)
	cfg.CrowdProb = 1.0
	cfg.CrowdSize = 12
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	size := DefaultTinyGridConfig().InputSize
	for i := 0; i < 1500; i++ {
		dets := tg.Detect(s.Next())
		perCell := map[int]int{}
		for _, d := range dets {
			cx := (d.Box.X + d.Box.W/2) * GridSize / size
			cy := (d.Box.Y + d.Box.H/2) * GridSize / size
			perCell[cy*GridSize+cx]++
		}
		for cell, n := range perCell {
			if n > MaxBoxesPerCell {
				t.Fatalf("frame %d: cell %d holds %d boxes > cap %d", i, cell, n, MaxBoxesPerCell)
			}
		}
	}
}

func TestCompressedNearReferenceAccuracy(t *testing.T) {
	cfg := vidgen.Small(9, frame.ClassPerson, 0.6)
	cfg.CrowdProb = 1.0
	s := vidgen.New(cfg)
	comp := NewCompressed()
	ref := NewOracle(DefaultOracleConfig())
	agree, denseAgree, dense, total := 0, 0, 0, 0
	for i := 0; i < 2000; i++ {
		f := s.Next()
		truthN := f.Truth.TargetCount(frame.ClassPerson)
		if truthN == 0 {
			continue
		}
		total++
		got := Count(comp.Detect(f), frame.ClassPerson, 0.2)
		want := Count(ref.Detect(f), frame.ClassPerson, 0.2)
		if got >= want-1 { // compressed may miss slightly more
			agree++
		}
		if truthN >= 4 {
			dense++
			if got >= truthN-1 {
				denseAgree++
			}
		}
	}
	if total < 200 || dense < 50 {
		t.Fatalf("degenerate stream: total=%d dense=%d", total, dense)
	}
	// Near-reference counting even on dense crowds — the property
	// TinyGrid lacks (see TestTinyGridUndercountsCrowds).
	if rate := float64(denseAgree) / float64(dense); rate < 0.85 {
		t.Fatalf("compressed dense-crowd agreement %.2f, want >= 0.85", rate)
	}
	if rate := float64(agree) / float64(total); rate < 0.9 {
		t.Fatalf("compressed vs reference agreement %.2f", rate)
	}
}

func TestCompressedDeterministic(t *testing.T) {
	s := vidgen.New(vidgen.Small(10, frame.ClassCar, 0.5))
	frames := vidgen.Generate(s, 300)
	c := NewCompressed()
	count := func() int {
		n := 0
		for _, f := range frames {
			n += len(c.Detect(f))
		}
		return n
	}
	if a, b := count(), count(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestCompressedNilTruth(t *testing.T) {
	if dets := NewCompressed().Detect(frame.New(8, 8)); dets != nil {
		t.Fatalf("nil-truth frame produced detections: %v", dets)
	}
}

// TestDetectAllocsIndependentOfGC: on a background frame — nothing to
// report — a warm detector's visit allocates nothing, with collections
// between frames, and on frames with objects a warm AppendDetect into a
// reused slice allocates nothing either. Before the scratch planes, the
// labelling's work space and the confidence table came off one
// GC-independent pool this was 20 allocations and 400 KB; before the
// image headers were recycled and the component and detection lists
// became the stream's and the caller's, it was up to 10.
func TestDetectAllocsIndependentOfGC(t *testing.T) {
	cfg := vidgen.Small(1, frame.ClassCar, 0.1)
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	f := s.Next()
	if f.Truth.TargetCount(cfg.Target) != 0 || len(tg.Detect(f)) != 0 {
		t.Fatal("the stream's first frame is not background; pick another seed")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		runtime.GC()
		runtime.GC()
		tg.Detect(f)
	})
	runtime.ReadMemStats(&after)
	if allocs != 0 {
		t.Errorf("Detect: %v allocations per background frame, want 0", allocs)
	}
	// AllocsPerRun calls the function once more than it counts.
	if perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perOp >= 1024 {
		t.Errorf("Detect: %d bytes per background frame, want under 1 KB", perOp)
	}

	busyCfg := vidgen.Small(3, frame.ClassCar, 1.0)
	busyCfg.StreamID = 1
	busy := vidgen.New(busyCfg)
	tg.SetBackground(busyCfg.StreamID, busy.Background())
	frames := vidgen.Generate(busy, 60)
	var dets []Detection
	found := 0
	for _, f := range frames {
		dets = tg.AppendDetect(dets[:0], f)
		found += len(dets)
	}
	if found == 0 {
		t.Fatal("no detection in 60 frames at TOR 1; pick another seed")
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(frames), func() {
		dets = tg.AppendDetect(dets[:0], frames[i%len(frames)])
		i++
	}); allocs != 0 {
		t.Errorf("AppendDetect into a warm slice: %v allocations per frame, want 0", allocs)
	}
}
