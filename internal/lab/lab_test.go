package lab

import (
	"bytes"
	"sync"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

func TestTrainCameraCached(t *testing.T) {
	cfg := vidgen.Small(881, frame.ClassCar, 0.3)
	a, err := TrainCamera(cfg, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainCamera(cfg, 600)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs must hit the cache")
	}
	cfg2 := cfg
	cfg2.Seed = 882
	c, err := TrainCamera(cfg2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed must train a different camera")
	}
}

// TestCacheKeyIsTheWholeConfig: two configurations that differ in a field
// the old seven-field key left out must not share a camera.
func TestCacheKeyIsTheWholeConfig(t *testing.T) {
	cfg := vidgen.Small(883, frame.ClassCar, 0.3)
	a, err := TrainCamera(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	noisy := cfg
	noisy.NoiseAmp += 3
	b, err := TrainCamera(noisy, 300)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("configs differing only in NoiseAmp were handed the same camera")
	}
	if b.Template.NoiseAmp != noisy.NoiseAmp || bytes.Equal(a.SDD.Ref.Pix, b.SDD.Ref.Pix) && a.SDD.Delta == b.SDD.Delta {
		t.Fatal("the noisier configuration's camera was not trained on it")
	}
}

var uncachedSeed int64 = 884

// TestConcurrentTrainCameraTrainsEachOnce asks for two cameras from eight
// goroutines at once: each configuration is trained exactly once (the
// frame pool counts the frames drawn), every caller gets its
// configuration's one camera, and the map lock is not held across a
// training. Run it under -race.
func TestConcurrentTrainCameraTrainsEachOnce(t *testing.T) {
	const frames = 300
	// Two configurations the process-wide cache has not seen, also when
	// -count repeats the test.
	cfgs := [2]vidgen.Config{vidgen.Small(uncachedSeed, frame.ClassCar, 0.3), vidgen.Small(uncachedSeed+1, frame.ClassPerson, 0.5)}
	uncachedSeed += 2
	gets0, _ := frame.PoolStats()
	var got [8]*Camera
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cam, err := TrainCamera(cfgs[g%2], frames)
			if err != nil {
				t.Error(err)
			}
			got[g] = cam
		}()
	}
	wg.Wait()
	if gets, _ := frame.PoolStats(); gets-gets0 != 2*frames {
		t.Errorf("eight callers of two configurations drew %d training frames, want %d (one training each)", gets-gets0, 2*frames)
	}
	for g, cam := range got {
		if cam == nil || cam != got[g%2] || cam.Template.Target != cfgs[g%2].Target {
			t.Errorf("caller %d got camera %p, caller %d got %p", g, cam, g%2, got[g%2])
		}
	}
	if got[0] == got[1] {
		t.Error("two configurations share one camera")
	}
}

func TestStreamMinting(t *testing.T) {
	cam, err := CarCamera(0.2)
	if err != nil {
		t.Fatal(err)
	}
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	s1 := cam.Stream(1, tg, StreamOptions{Seed: 10, Frames: 50})
	s2 := cam.Stream(2, tg, StreamOptions{Seed: 20, Frames: 50})

	if s1.ID != 1 || s2.ID != 2 {
		t.Fatal("stream ids wrong")
	}
	if s1.SDD == s2.SDD || s1.SNM == s2.SNM || s1.TYolo == s2.TYolo {
		t.Fatal("streams must get fresh filter instances")
	}
	if s1.SNM.Net != cam.SNM.Net || s2.SNM.Net != cam.SNM.Net {
		t.Fatal("streams must infer on the camera's one trained net, not copies")
	}
	// One net, two filters: identical predictions on identical frames.
	f := s1.Source.Next()
	p1 := s1.SNM.Prob(f)
	p2 := s2.SNM.Prob(f)
	if p1 != p2 {
		t.Fatalf("two streams sharing a net disagree: %v vs %v", p1, p2)
	}
	if s1.Target != frame.ClassCar {
		t.Fatalf("target = %v", s1.Target)
	}
}

func TestStreamOptionsDefaults(t *testing.T) {
	cam, err := CarCamera(0.2)
	if err != nil {
		t.Fatal(err)
	}
	spec := cam.Stream(5, nil, StreamOptions{})
	if spec.Frames != 1000 {
		t.Fatalf("default frames = %d", spec.Frames)
	}
	if spec.TYolo.NumberOfObjects != 1 {
		t.Fatalf("default NumberOfObjects = %d", spec.TYolo.NumberOfObjects)
	}
	if spec.SNM.FilterDegree != 0.5 {
		t.Fatalf("default FilterDegree = %v", spec.SNM.FilterDegree)
	}
}

func TestTOROverride(t *testing.T) {
	cam, err := CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	spec := cam.Stream(9, nil, StreamOptions{Seed: 4, Frames: 100, TOR: 0.9})
	src := spec.Source.(*vidgen.Stream)
	if src.Config().TOR != 0.9 {
		t.Fatalf("TOR override not applied: %v", src.Config().TOR)
	}
}

func TestPersonCamera(t *testing.T) {
	cam, err := PersonCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cam.Template.Target != frame.ClassPerson {
		t.Fatalf("target = %v", cam.Template.Target)
	}
	if cam.SNM.TestAccuracy < 0.8 {
		t.Fatalf("person SNM accuracy %.2f", cam.SNM.TestAccuracy)
	}
}
