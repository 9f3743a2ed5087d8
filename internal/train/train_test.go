package train

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/nn"
	"ffsva/internal/vidgen"
)

// collect builds a training corpus for the stream's target, returning
// a copy of each frame's ground truth alongside (the set keeps no frame,
// and a released frame's truth is recycled).
func collect(cfg vidgen.Config, n int) (*Set, []*frame.Annotation) {
	src := vidgen.New(cfg)
	set := NewSet(detect.NewOracle(detect.DefaultOracleConfig()), cfg.Target)
	truth := make([]*frame.Annotation, n)
	for i := range truth {
		f := src.Next()
		ann := *f.Truth
		ann.Boxes = slices.Clone(ann.Boxes)
		truth[i] = &ann
		set.Add(f)
	}
	return set, truth
}

// makeSet is collect without the ground truth.
func makeSet(cfg vidgen.Config, n int) *Set {
	set, _ := collect(cfg, n)
	return set
}

func TestLabelAgreesWithTruth(t *testing.T) {
	cfg := vidgen.Small(21, frame.ClassCar, 0.3)
	set, truth := collect(cfg, 1000)
	agree := 0
	for i, s := range set.Samples {
		if s.Has == (truth[i].TargetCount(frame.ClassCar) > 0) {
			agree++
		}
	}
	// Oracle has a 0.5% miss rate, so near-perfect agreement is expected.
	if rate := float64(agree) / float64(len(set.Samples)); rate < 0.98 {
		t.Fatalf("label agreement %.3f, want >= 0.98", rate)
	}
}

// TestSetKeepsDerivationsAndReturnsFrames is the collector's contract: a
// sample holds exactly what the runtime filters would derive from the
// frame (the SDD's 100² plane, the SNM's normalised 50² input), and every
// pooled frame added has gone back to the pool.
func TestSetKeepsDerivationsAndReturnsFrames(t *testing.T) {
	cfg := vidgen.Small(27, frame.ClassCar, 0.3)
	src, twin := vidgen.New(cfg), vidgen.New(cfg)
	set := NewSet(detect.NewOracle(detect.DefaultOracleConfig()), cfg.Target)
	gets0, puts0 := frame.PoolStats()
	set.AddFrom(src, 40)
	gets, puts := frame.PoolStats()
	if gets-gets0 != 40 || puts-puts0 != 40 {
		t.Fatalf("40 frames added: %d taken from the pool, %d returned", gets-gets0, puts-puts0)
	}
	for i, s := range set.Samples {
		f := twin.Next()
		plane := imgproc.Resize(imgproc.FromFrame(f), filters.SDDSize, filters.SDDSize)
		if !bytes.Equal(s.Plane.Pix, plane.Pix) {
			t.Fatalf("sample %d: SDD plane differs from the frame's resize", i)
		}
		want := filters.Input(f)
		for j, v := range want.Data {
			if s.Input.Data[j] != v {
				t.Fatalf("sample %d: SNM input[%d] = %v, filters.Input gives %v", i, j, s.Input.Data[j], v)
			}
		}
		f.Release()
	}
	// A frame that is not pooled may be added too, and stays the caller's.
	own := frame.New(cfg.W, cfg.H)
	set.Add(own)
	if own.Pix == nil {
		t.Fatal("Add took the pixels of a frame it does not own")
	}
}

func TestFitSDDSeparatesBackground(t *testing.T) {
	cfg := vidgen.Small(22, frame.ClassCar, 0.25)
	fit, err := FitSDD(makeSet(cfg, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Delta <= 0 {
		t.Fatalf("delta = %v, want positive", fit.Delta)
	}
	sdd := filters.NewSDD(fit.Ref, fit.Delta, filters.MetricMSE)
	// Feed a fresh slice of the same camera and score behaviour.
	s2 := vidgen.New(func() vidgen.Config {
		c := cfg
		c.Seed = 2222
		c.BGSeed = cfg.Seed // same camera
		return c
	}())
	bgDropped, bgTotal := 0, 0
	tgKept, tgTotal := 0, 0
	for i := 0; i < 2000; i++ {
		f := s2.Next()
		v := sdd.Process(f)
		if len(f.Truth.Boxes) == 0 {
			bgTotal++
			if v == filters.Drop {
				bgDropped++
			}
			continue
		}
		// Score keep-rate only on solidly visible targets; a sliver of a
		// car entering the frame is legitimately near-background.
		solid := false
		for _, b := range f.Truth.Boxes {
			if b.Class == frame.ClassCar && b.Visible >= 0.5 {
				solid = true
			}
		}
		if solid {
			tgTotal++
			if v == filters.Pass {
				tgKept++
			}
		}
	}
	if bgTotal < 200 || tgTotal < 100 {
		t.Fatalf("degenerate stream: bg=%d tg=%d", bgTotal, tgTotal)
	}
	if rate := float64(bgDropped) / float64(bgTotal); rate < 0.7 {
		t.Errorf("SDD drops only %.2f of background", rate)
	}
	if rate := float64(tgKept) / float64(tgTotal); rate < 0.95 {
		t.Errorf("SDD keeps only %.2f of target frames", rate)
	}
}

func TestFitSDDNoBackgroundFrames(t *testing.T) {
	cfg := vidgen.Small(23, frame.ClassPerson, 1.0)
	set := makeSet(cfg, 200)
	// Even a TOR 1.0 stream has empty frames between scenes, so mark
	// them all as holding something.
	for i := range set.Samples {
		set.Samples[i].Empty = false
	}
	if _, err := FitSDD(set); err == nil {
		t.Fatal("expected error with no background frames")
	}
}

func TestTrainSNMLearnsStream(t *testing.T) {
	cfg := vidgen.Small(24, frame.ClassCar, 0.3)
	res, err := TrainSNM(makeSet(cfg, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.85 {
		t.Fatalf("SNM test accuracy %.3f, want >= 0.85", res.TestAccuracy)
	}
	if res.CLow > res.CHigh {
		t.Fatalf("clow %v > chigh %v", res.CLow, res.CHigh)
	}
	if res.CLow < 0 || res.CHigh > 1 {
		t.Fatalf("thresholds out of range: [%v, %v]", res.CLow, res.CHigh)
	}

	// The trained SNM must generalize to unseen frames from the same
	// camera.
	snm := filters.NewSNM(res.Net, res.CLow, res.CHigh, 0.5)
	s2 := vidgen.New(func() vidgen.Config {
		c := cfg
		c.Seed = 3333
		c.BGSeed = cfg.Seed
		return c
	}())
	correct, total := 0, 0
	for i := 0; i < 800; i++ {
		f := s2.Next()
		want := f.Truth.TargetCount(frame.ClassCar) > 0
		got := snm.Process(f) == filters.Pass
		// Skip frames with only barely visible targets — genuinely
		// ambiguous for a 50×50 model.
		ambiguous := false
		for _, b := range f.Truth.Boxes {
			if b.Class == frame.ClassCar && b.Visible < 0.3 {
				ambiguous = true
			}
		}
		if ambiguous {
			continue
		}
		total++
		if got == want {
			correct++
		}
	}
	if rate := float64(correct) / float64(total); rate < 0.8 {
		t.Fatalf("SNM generalization accuracy %.3f (n=%d), want >= 0.8", rate, total)
	}
}

func TestTrainSNMRequiresBothClasses(t *testing.T) {
	cfg := vidgen.Small(25, frame.ClassCar, 0.0)
	set := makeSet(cfg, 300)
	for i := range set.Samples {
		set.Samples[i].Has = false // force a corpus without positives
	}
	if _, err := TrainSNM(set); err == nil {
		t.Fatal("expected error training without positives")
	}
}

func TestTrainSNMRequiresNegatives(t *testing.T) {
	cfg := vidgen.Small(25, frame.ClassCar, 0.3)
	set := makeSet(cfg, 300)
	for i := range set.Samples {
		set.Samples[i].Has = true // force a corpus without negatives
	}
	if _, err := TrainSNM(set); err == nil {
		t.Fatal("expected error training without negatives")
	}
}

// TestTrainSNMEmptyTestSplit: every set of at least one sample holds a
// test sample (the split sends index 0 there), so only an empty set has
// nothing to select thresholds on.
func TestTrainSNMEmptyTestSplit(t *testing.T) {
	set := NewSet(detect.NewOracle(detect.DefaultOracleConfig()), frame.ClassCar)
	if _, err := TrainSNM(set); err == nil || !strings.Contains(err.Error(), "empty test split") {
		t.Fatalf("empty set: error %v, want an empty test split", err)
	}
}

func TestTrainSNMDeterministic(t *testing.T) {
	cfg := vidgen.Small(26, frame.ClassCar, 0.3)
	set := makeSet(cfg, 600)
	a, err := TrainSNM(set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSNM(set)
	if err != nil {
		t.Fatal(err)
	}
	if a.CLow != b.CLow || a.CHigh != b.CHigh || a.TestAccuracy != b.TestAccuracy {
		t.Fatalf("training nondeterministic: %+v vs %+v",
			[3]float64{a.CLow, a.CHigh, a.TestAccuracy}, [3]float64{b.CLow, b.CHigh, b.TestAccuracy})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("q.5 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input in place")
	}
}

// TestCloneNet checks that a clone of a trainer-built network (the
// reference the nn tests hold shared inference to) computes the source's
// outputs bit for bit and shares no parameter with it.
func TestCloneNet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewSNMNet(rng)
	clone := src.Clone()
	infer := func(n *nn.Net, x *nn.Tensor) uint32 {
		out := n.Infer(x)
		defer out.Release()
		return math.Float32bits(out.Data[0])
	}
	inputs := make([]*nn.Tensor, 50)
	for i := range inputs {
		x := nn.NewTensor(1, 1, filters.SNMSize, filters.SNMSize)
		for j := range x.Data {
			x.Data[j] = rng.Float32()
		}
		inputs[i] = x
		if want, got := infer(src, x), infer(clone, x); got != want {
			t.Fatalf("input %d: clone %08x, source %08x", i, got, want)
		}
	}
	// A write to either net's weights must not show in the other.
	before := infer(src, inputs[0])
	for _, p := range clone.Params() {
		for j := range p.Val.Data {
			p.Val.Data[j] += 1
		}
	}
	if after := infer(src, inputs[0]); after != before {
		t.Error("writing the clone's weights changed the source's output")
	}
	if moved := infer(clone, inputs[0]); moved == before {
		t.Error("the clone ignores its own weights")
	}
	kept := infer(clone, inputs[1])
	for _, p := range src.Params() {
		p.Val.Zero()
	}
	if after := infer(clone, inputs[1]); after != kept {
		t.Error("writing the source's weights changed the clone's output")
	}
}
