package vidgen

import (
	"math"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
)

func TestDeterminismSameSeed(t *testing.T) {
	a := New(Small(42, frame.ClassCar, 0.2))
	b := New(Small(42, frame.ClassCar, 0.2))
	for i := 0; i < 500; i++ {
		fa, fb := a.Next(), b.Next()
		if fa.Seq != fb.Seq {
			t.Fatalf("seq mismatch at %d", i)
		}
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatalf("pixel mismatch at frame %d offset %d", i, j)
			}
		}
		if fa.Truth.TargetCount(frame.ClassCar) != fb.Truth.TargetCount(frame.ClassCar) {
			t.Fatalf("annotation mismatch at frame %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(Small(1, frame.ClassCar, 0.2))
	b := New(Small(2, frame.ClassCar, 0.2))
	same := true
	for i := 0; i < 50 && same; i++ {
		fa, fb := a.Next(), b.Next()
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical pixel streams")
	}
}

func TestTORConvergence(t *testing.T) {
	tors := []float64{0.10, 0.50}
	if !testing.Short() {
		tors = []float64{0.05, 0.10, 0.25, 0.50}
	}
	for _, tor := range tors {
		tor := tor
		s := New(Small(99, frame.ClassCar, tor))
		const n = 20000
		hits := 0
		for i := 0; i < n; i++ {
			f := s.Next()
			if f.Truth.TargetCount(frame.ClassCar) > 0 {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-tor) > 0.05 {
			t.Errorf("TOR target %.2f: realized %.3f", tor, got)
		}
		if math.Abs(s.RealizedTOR()-got) > 1e-9 {
			t.Errorf("RealizedTOR() = %v, want %v", s.RealizedTOR(), got)
		}
	}
}

func TestTORExtremes(t *testing.T) {
	s := New(Small(5, frame.ClassPerson, 1.0))
	const n = 3000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Next().Truth.TargetCount(frame.ClassPerson) > 0 {
			hits++
		}
	}
	if got := float64(hits) / n; got < 0.9 {
		t.Errorf("TOR=1.0 realized only %.3f", got)
	}

	s0 := New(Small(6, frame.ClassCar, 0.0))
	hits = 0
	for i := 0; i < n; i++ {
		if s0.Next().Truth.TargetCount(frame.ClassCar) > 0 {
			hits++
		}
	}
	if got := float64(hits) / n; got > 0.05 {
		t.Errorf("TOR=0 realized %.3f", got)
	}
}

func TestScenesAreContiguous(t *testing.T) {
	s := New(Small(7, frame.ClassCar, 0.3))
	lastScene := int64(0)
	active := int64(0)
	for i := 0; i < 5000; i++ {
		f := s.Next()
		id := f.Truth.SceneID
		if id == 0 {
			active = 0
			continue
		}
		if active != 0 && id != active {
			t.Fatalf("scene id changed mid-run without gap: %d -> %d at frame %d", active, id, i)
		}
		if active == 0 {
			if id <= lastScene {
				t.Fatalf("scene id not increasing: %d after %d", id, lastScene)
			}
			lastScene = id
		}
		active = id
	}
	if lastScene < 5 {
		t.Fatalf("only %d scenes in 5000 frames at TOR 0.3", lastScene)
	}
}

func TestSceneLengthsReasonable(t *testing.T) {
	cfg := Small(8, frame.ClassCar, 0.3)
	s := New(cfg)
	var lens []int
	cur := 0
	for i := 0; i < 20000; i++ {
		f := s.Next()
		if f.Truth.SceneID != 0 {
			cur++
		} else if cur > 0 {
			lens = append(lens, cur)
			cur = 0
		}
	}
	if len(lens) == 0 {
		t.Fatal("no scenes")
	}
	sum := 0
	for _, l := range lens {
		sum += l
	}
	mean := float64(sum) / float64(len(lens))
	if mean < float64(cfg.MeanSceneFrames)/3 || mean > float64(cfg.MeanSceneFrames)*4 {
		t.Fatalf("mean scene length %.1f, config %d", mean, cfg.MeanSceneFrames)
	}
}

func TestObjectsAreVisibleInPixels(t *testing.T) {
	// Frames with a target must differ from the background markedly more
	// than background-only frames do (that is what SDD exploits).
	cfg := Small(9, frame.ClassCar, 0.3)
	cfg.LightAmp = 0 // isolate object contribution
	s := New(cfg)
	bg := s.Background()
	var withObj, withoutObj []float64
	for i := 0; i < 3000; i++ {
		f := s.Next()
		d := imgproc.MSE(imgproc.FromFrame(f), bg)
		if f.Truth.TargetCount(frame.ClassCar) > 0 {
			withObj = append(withObj, d)
		} else if len(f.Truth.Boxes) == 0 {
			withoutObj = append(withoutObj, d)
		}
	}
	if len(withObj) == 0 || len(withoutObj) == 0 {
		t.Fatal("degenerate stream")
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(withObj) < 3*avg(withoutObj) {
		t.Fatalf("object frames not distinguishable: with=%.2f without=%.2f", avg(withObj), avg(withoutObj))
	}
}

func TestBoxesInBounds(t *testing.T) {
	s := New(Small(10, frame.ClassPerson, 0.5))
	for i := 0; i < 3000; i++ {
		f := s.Next()
		for _, b := range f.Truth.Boxes {
			if b.X < 0 || b.Y < 0 || b.X+b.W > f.W || b.Y+b.H > f.H || b.W <= 0 || b.H <= 0 {
				t.Fatalf("frame %d: box out of bounds: %+v", i, b)
			}
			if b.Visible <= 0 || b.Visible > 1.0000001 {
				t.Fatalf("frame %d: visible fraction %v out of (0,1]", i, b.Visible)
			}
		}
	}
}

func TestPartialAppearancesOccur(t *testing.T) {
	cfg := Small(11, frame.ClassCar, 0.3)
	cfg.StopProb = 1.0 // force stop-and-wait behaviour
	s := New(cfg)
	partialRun := 0
	maxRun := 0
	for i := 0; i < 8000; i++ {
		f := s.Next()
		isPartial := false
		for _, b := range f.Truth.Boxes {
			if b.Class == frame.ClassCar && b.Visible < 0.7 {
				isPartial = true
			}
		}
		if isPartial {
			partialRun++
			if partialRun > maxRun {
				maxRun = partialRun
			}
		} else {
			partialRun = 0
		}
	}
	if maxRun < 30 {
		t.Fatalf("longest partial-appearance run = %d frames, want >= 30 (waiting-at-light behaviour)", maxRun)
	}
}

func TestCrowdScenesHaveManyObjects(t *testing.T) {
	cfg := Small(12, frame.ClassPerson, 0.6)
	cfg.CrowdProb = 1.0
	s := New(cfg)
	maxCount := 0
	for i := 0; i < 4000; i++ {
		if c := s.Next().Truth.TargetCount(frame.ClassPerson); c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 4 {
		t.Fatalf("max concurrent persons = %d, want >= 4 in crowd mode", maxCount)
	}
}

func TestLightDriftRecorded(t *testing.T) {
	cfg := Small(13, frame.ClassCar, 0.1)
	cfg.LightAmp = 10
	cfg.LightPeriod = 100
	s := New(cfg)
	sawHigh, sawLow := false, false
	for i := 0; i < 200; i++ {
		f := s.Next()
		if f.Truth.Lum > 8 {
			sawHigh = true
		}
		if f.Truth.Lum < -8 {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Fatal("illumination drift not exercised over a full period")
	}
}

func TestPresetsValid(t *testing.T) {
	for _, cfg := range []Config{Jackson(1), Coral(1), Small(1, frame.ClassCar, 0.1)} {
		s := New(cfg)
		f := s.Next()
		if f.W != cfg.W || f.H != cfg.H {
			t.Fatalf("frame size %dx%d, want %dx%d", f.W, f.H, cfg.W, cfg.H)
		}
		if f.Truth == nil {
			t.Fatal("missing annotation")
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := Small(1, frame.ClassCar, 0.1)
	bad.TOR = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid TOR")
		}
	}()
	New(bad)
}

func TestSeqMonotonic(t *testing.T) {
	s := New(Small(14, frame.ClassCar, 0.2))
	for i := int64(0); i < 100; i++ {
		if f := s.Next(); f.Seq != i {
			t.Fatalf("seq = %d, want %d", f.Seq, i)
		}
	}
}

func TestDistractorsAreNotTargets(t *testing.T) {
	cfg := Small(15, frame.ClassCar, 0.3)
	cfg.DistractorProb = 1.0
	s := New(cfg)
	sawDistractor := false
	for i := 0; i < 5000; i++ {
		f := s.Next()
		for _, b := range f.Truth.Boxes {
			if b.Class != frame.ClassCar {
				sawDistractor = true
				if b.Class == frame.ClassNone {
					t.Fatal("distractor with ClassNone")
				}
			}
		}
	}
	if !sawDistractor {
		t.Fatal("no distractors generated at DistractorProb=1")
	}
}

func TestSceneSwitchChangesPixels(t *testing.T) {
	cfg := Small(5, frame.ClassCar, 0.0)
	cfg.SceneSwitchFrame = 10
	cfg.NoiseAmp = 0
	cfg.LightAmp = 0
	src := New(cfg)
	var before *frame.Frame
	for i := 0; i < 9; i++ {
		before = src.Next()
	}
	after := src.Next() // frame index 10 after increment? ensure past switch
	after = src.Next()
	diff := 0
	for i := range before.Pix {
		d := int(before.Pix[i]) - int(after.Pix[i])
		if d < 0 {
			d = -d
		}
		diff += d
	}
	if diff == 0 {
		t.Fatal("scene switch left the background unchanged")
	}
}
