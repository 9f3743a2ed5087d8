package filters

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/vidgen"
)

func flatGray(v uint8) *imgproc.Gray {
	g := imgproc.NewGray(SDDSize, SDDSize)
	for i := range g.Pix {
		g.Pix[i] = v
	}
	return g
}

func flatFrame(v uint8, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = v
	}
	return f
}

func TestSDDDropsIdenticalFrame(t *testing.T) {
	sdd := NewSDD(flatGray(100), 25, MetricMSE)
	f := flatFrame(100, 320, 240)
	if v := sdd.Process(f); v != Drop {
		t.Fatalf("identical frame verdict = %v, want drop", v)
	}
	if sdd.LastDistance() != 0 {
		t.Fatalf("distance = %v, want 0", sdd.LastDistance())
	}
}

func TestSDDPassesChangedFrame(t *testing.T) {
	sdd := NewSDD(flatGray(100), 25, MetricMSE)
	f := flatFrame(100, 320, 240)
	// Paint a bright object covering ~10% of the frame: MSE ≈ 0.1*80² ≈ 640.
	for y := 0; y < 80; y++ {
		for x := 0; x < 96; x++ {
			f.Set(x, y, 180)
		}
	}
	if v := sdd.Process(f); v != Pass {
		t.Fatalf("changed frame verdict = %v (dist %v), want pass", v, sdd.LastDistance())
	}
}

// halfFrame is a w×h frame whose left half is at level left and whose
// right half is at level right.
func halfFrame(left, right uint8, w, h int) *frame.Frame {
	f := flatFrame(right, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w/2; x++ {
			f.Set(x, y, left)
		}
	}
	return f
}

func TestSDDAdaptsToDrift(t *testing.T) {
	// One half of the background slowly brightens (+1 level every 10
	// frames) while the other stays put. Luminance compensation removes
	// only the mean offset, so without the EMA the residual grows past
	// δdiff within ~120 frames; with it the reference trails the drift by
	// a few levels and every frame stays background.
	sdd := NewSDD(flatGray(100), 30, MetricMSE)
	const n = 300
	drops := 0
	for i := 0; i < n; i++ {
		if sdd.Process(halfFrame(uint8(100+i/10), 100, 320, 240)) == Drop {
			drops++
		}
	}
	if drops < n {
		t.Fatalf("drift-adapted SDD dropped only %d/%d (last distance %v)", drops, n, sdd.LastDistance())
	}
}

func TestSDDMetrics(t *testing.T) {
	for _, m := range []Metric{MetricMSE, MetricNRMSE, MetricSAD} {
		delta := map[Metric]float64{MetricMSE: 10, MetricNRMSE: 0.02, MetricSAD: 10000}[m]
		sdd := NewSDD(flatGray(100), delta, m)
		if v := sdd.Process(flatFrame(100, 100, 100)); v != Drop {
			t.Fatalf("%v: identical frame passed", m)
		}
		// Structured change (an object), not a global brightness shift.
		f := flatFrame(100, 100, 100)
		for y := 20; y < 60; y++ {
			for x := 20; x < 60; x++ {
				f.Set(x, y, 230)
			}
		}
		if v := sdd.Process(f); v != Pass {
			t.Fatalf("%v: object frame dropped (dist %v)", m, sdd.LastDistance())
		}
	}
}

func TestSDDLumCompensation(t *testing.T) {
	sdd := NewSDD(flatGray(100), 25, MetricMSE)
	// A uniformly +60 brighter frame is just light, not content.
	if v := sdd.Process(flatFrame(160, 100, 100)); v != Drop {
		t.Fatalf("global brightness shift passed (dist %v)", sdd.LastDistance())
	}
	// Without compensation it is a huge difference.
	if d := imgproc.MSE(flatGray(160), flatGray(100)); d <= 25 {
		t.Fatalf("uncompensated shift distance %v, want > 25", d)
	}
}

func TestDistanceKnownValues(t *testing.T) {
	a := imgproc.NewGray(2, 1)
	b := imgproc.NewGray(2, 1)
	copy(a.Pix, []uint8{10, 30})
	copy(b.Pix, []uint8{20, 20})
	// Raw diffs: -10, +10; mean offset 0, so compensation is a no-op.
	if got := Distance(a, b, MetricMSE); got != 100 {
		t.Fatalf("MSE = %v, want 100", got)
	}
	if got := Distance(a, b, MetricSAD); got != 20 {
		t.Fatalf("SAD = %v, want 20", got)
	}
	// Pure offset: compensated distance is zero.
	copy(b.Pix, []uint8{60, 80})
	if got := Distance(a, b, MetricMSE); got != 0 {
		t.Fatalf("compensated offset MSE = %v, want 0", got)
	}
	if got := imgproc.MSE(a, b); got != 2500 {
		t.Fatalf("raw offset MSE = %v, want 2500", got)
	}
	if got := Distance(a, b, MetricSAD); got != 0 {
		t.Fatalf("compensated offset SAD = %v, want 0", got)
	}
	if got := imgproc.SAD(a, b); got != 100 {
		t.Fatalf("raw offset SAD = %v, want 100", got)
	}
}

func TestSDDStats(t *testing.T) {
	sdd := NewSDD(flatGray(100), 25, MetricMSE)
	sdd.Process(flatFrame(100, 100, 100))
	obj := flatFrame(100, 100, 100)
	for y := 10; y < 50; y++ {
		for x := 10; x < 50; x++ {
			obj.Set(x, y, 240)
		}
	}
	sdd.Process(obj)
	st := sdd.Stats()
	if st.Processed != 2 || st.Passed != 1 || st.Dropped() != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PassRate() != 0.5 {
		t.Fatalf("pass rate = %v", st.PassRate())
	}
}

func TestMetricString(t *testing.T) {
	if MetricMSE.String() != "mse" || MetricNRMSE.String() != "nrmse" || MetricSAD.String() != "sad" {
		t.Fatal("metric names wrong")
	}
}

func TestVerdictString(t *testing.T) {
	if Pass.String() != "pass" || Drop.String() != "drop" {
		t.Fatal("verdict names wrong")
	}
}

func TestSNMTPreInterpolation(t *testing.T) {
	snm := NewSNM(nil, 0.2, 0.8, 0)
	if got := snm.TPre(); got != 0.2 {
		t.Fatalf("TPre(fd=0) = %v, want clow", got)
	}
	snm.FilterDegree = 1
	if got := snm.TPre(); got != 0.8 {
		t.Fatalf("TPre(fd=1) = %v, want chigh", got)
	}
	snm.FilterDegree = 0.5
	if got := snm.TPre(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("TPre(fd=0.5) = %v, want 0.5", got)
	}
	// Out-of-range degrees clamp (paper: tpre outside [clow, chigh] is
	// not considered).
	snm.FilterDegree = 2
	if got := snm.TPre(); got != 0.8 {
		t.Fatalf("TPre(fd=2) = %v, want chigh", got)
	}
	snm.FilterDegree = -1
	if got := snm.TPre(); got != 0.2 {
		t.Fatalf("TPre(fd=-1) = %v, want clow", got)
	}
}

func TestNewSNMSwapsInvertedThresholds(t *testing.T) {
	snm := NewSNM(nil, 0.9, 0.1, 0)
	if snm.CLow != 0.1 || snm.CHigh != 0.9 {
		t.Fatalf("thresholds not normalized: [%v, %v]", snm.CLow, snm.CHigh)
	}
}

// truthDetector adapts ground truth as a perfect detector for TYolo tests.
type truthDetector struct{}

func (truthDetector) Detect(f *frame.Frame) []detect.Detection {
	var dets []detect.Detection
	for _, b := range f.Truth.Boxes {
		dets = append(dets, detect.Detection{
			Box: imgproc.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H}, Class: b.Class, Conf: 0.9,
		})
	}
	return dets
}

func frameWithCars(n int) *frame.Frame {
	f := frame.New(100, 100)
	f.Truth = &frame.Annotation{}
	for i := 0; i < n; i++ {
		f.Truth.Boxes = append(f.Truth.Boxes, frame.Box{
			X: i * 10, Y: 10, W: 8, H: 4, Class: frame.ClassCar, Visible: 1,
		})
	}
	return f
}

func TestTYoloCountThreshold(t *testing.T) {
	ty := NewTYolo(truthDetector{}, frame.ClassCar, 3)
	if v := ty.Process(frameWithCars(2)); v != Drop {
		t.Fatalf("2 cars with threshold 3: %v, want drop", v)
	}
	if v := ty.Process(frameWithCars(3)); v != Pass {
		t.Fatalf("3 cars with threshold 3: %v, want pass", v)
	}
	if ty.LastCount() != 3 {
		t.Fatalf("LastCount = %d", ty.LastCount())
	}
}

func TestTYoloTolerance(t *testing.T) {
	ty := NewTYolo(truthDetector{}, frame.ClassCar, 3)
	ty.Tolerance = 1
	if got := ty.EffectiveThreshold(); got != 2 {
		t.Fatalf("effective threshold = %d, want 2", got)
	}
	if v := ty.Process(frameWithCars(2)); v != Pass {
		t.Fatal("tolerance 1 should pass 2 cars at threshold 3")
	}
	ty.Tolerance = 10
	if got := ty.EffectiveThreshold(); got != 1 {
		t.Fatalf("effective threshold floors at 1, got %d", got)
	}
	if v := ty.Process(frameWithCars(0)); v != Drop {
		t.Fatal("zero objects must always drop")
	}
}

func TestTYoloMinimumOne(t *testing.T) {
	ty := NewTYolo(truthDetector{}, frame.ClassCar, 0)
	if ty.NumberOfObjects != 1 {
		t.Fatalf("NumberOfObjects clamped to %d, want 1", ty.NumberOfObjects)
	}
}

func TestTYoloIgnoresOtherClasses(t *testing.T) {
	f := frame.New(100, 100)
	f.Truth = &frame.Annotation{Boxes: []frame.Box{
		{X: 1, Y: 1, W: 5, H: 10, Class: frame.ClassPerson, Visible: 1},
	}}
	ty := NewTYolo(truthDetector{}, frame.ClassCar, 1)
	if v := ty.Process(f); v != Drop {
		t.Fatal("person counted as car")
	}
}

func TestGrayInputNormalization(t *testing.T) {
	g := imgproc.NewGray(SNMSize, SNMSize)
	for i := range g.Pix {
		g.Pix[i] = 255
	}
	x := GrayInput(g)
	for _, v := range x.Data {
		if v != 1 {
			t.Fatalf("white pixel -> %v, want 1", v)
		}
	}
	g2 := imgproc.NewGray(SNMSize, SNMSize)
	x2 := GrayInput(g2)
	for _, v := range x2.Data {
		if v != -1 {
			t.Fatalf("black pixel -> %v, want -1", v)
		}
	}
}

func TestSDDOnSyntheticStream(t *testing.T) {
	// End-to-end smoke: SDD built from the true background must pass
	// most scene frames of a real generated stream.
	cfg := vidgen.Small(31, frame.ClassCar, 0.3)
	s := vidgen.New(cfg)
	sdd := NewSDD(s.Background(), 60, MetricMSE)
	kept, total := 0, 0
	for i := 0; i < 1000; i++ {
		f := s.Next()
		if f.Truth.TargetCount(frame.ClassCar) == 0 {
			sdd.Process(f)
			continue
		}
		total++
		if sdd.Process(f) == Pass {
			kept++
		}
	}
	if total == 0 {
		t.Fatal("no target frames")
	}
	if rate := float64(kept) / float64(total); rate < 0.9 {
		t.Fatalf("SDD kept only %.2f of target frames", rate)
	}
}

// TestUncompensatedDistanceIsMSE: when two images have no global
// offset there is nothing to compensate, and Distance, which accumulates
// squared integer differences in a float64 whose every partial sum is an
// exact integer, returns imgproc.MSE's value bit for bit. b is a
// permutation of a, so their pixel sums, and the offset, are exactly
// equal and zero.
func TestUncompensatedDistanceIsMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, b := imgproc.NewGray(SDDSize, SDDSize), imgproc.NewGray(SDDSize, SDDSize)
	for trial := 0; trial < 20; trial++ {
		for i := range a.Pix {
			a.Pix[i] = uint8(rng.Intn(256))
		}
		for i, j := range rng.Perm(len(a.Pix)) {
			b.Pix[i] = a.Pix[j]
		}
		mse := imgproc.MSE(a, b)
		if got := Distance(a, b, MetricMSE); got != mse {
			t.Fatalf("trial %d: Distance = %v, MSE = %v", trial, got, mse)
		}
		if got, want := Distance(a, b, MetricNRMSE), math.Sqrt(mse)/255; got != want {
			t.Fatalf("trial %d: NRMSE distance = %v, want %v", trial, got, want)
		}
	}
}

// TestSDDProcessAllocsIndependentOfGC: the difference detector's visit
// allocates nothing, whatever the collector does between frames (the
// frame's view stays on the stack).
func TestSDDProcessAllocsIndependentOfGC(t *testing.T) {
	s := vidgen.New(vidgen.Small(1, frame.ClassCar, 0.1))
	sdd := NewSDD(s.Background(), 40, MetricMSE)
	frames := vidgen.Generate(s, 8)
	sdd.Process(frames[0])
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		sdd.Process(frames[i%len(frames)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("SDD.Process: %v allocations per frame, want 0", allocs)
	}
}

// TestWarmFilterBatchesAllocateNothing: once warm, an SNM batch (its
// input tensor and resize target, every layer's output and the
// verdicts) and a T-YOLO visit with its candidates (the detections,
// the component list and the candidate list the caller reuses)
// allocate nothing, with collections between calls.
func TestWarmFilterBatchesAllocateNothing(t *testing.T) {
	cfg := vidgen.Small(6, frame.ClassCar, 1.0)
	cfg.StreamID = 3
	s := vidgen.New(cfg)
	frames := vidgen.Generate(s, 48)

	snm := NewSNM(benchNet(rand.New(rand.NewSource(4))), 0.2, 0.8, 0.5)
	const batch = 8
	verdicts := snm.AppendBatch(nil, frames[:batch])
	i := 0
	if allocs := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		lo := (i * batch) % len(frames)
		verdicts = snm.AppendBatch(verdicts, frames[lo:lo+batch])
		i++
	}); allocs != 0 {
		t.Errorf("SNM.AppendBatch of %d frames: %v allocations, want 0", batch, allocs)
	}

	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	tg.SetBackground(cfg.StreamID, s.Background())
	ty := NewTYolo(tg, cfg.Target, 1)
	var cands []frame.Candidate
	found := 0
	for _, f := range frames {
		_, cands = ty.ProcessCands(cands[:0], f)
		found += len(cands)
	}
	if found == 0 {
		t.Fatal("no candidate in 48 frames at TOR 1; pick another seed")
	}
	i = 0
	if allocs := testing.AllocsPerRun(len(frames), func() {
		_, cands = ty.ProcessCands(cands[:0], frames[i%len(frames)])
		i++
	}); allocs != 0 {
		t.Errorf("TYolo.ProcessCands: %v allocations per frame, want 0", allocs)
	}
}
