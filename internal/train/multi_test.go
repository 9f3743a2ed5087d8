package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

// mixedStream produces car scenes where ~40% of objects are buses.
func mixedStream(seed int64, tor float64) vidgen.Config {
	cfg := vidgen.Small(seed, frame.ClassCar, tor)
	cfg.SecondaryClass = frame.ClassBus
	cfg.MixProb = 0.4
	cfg.DistractorProb = 0
	return cfg
}

func TestLabelMultiAgreesWithTruth(t *testing.T) {
	classes := []frame.Class{frame.ClassCar, frame.ClassBus}
	set, truth := collect(mixedStream(61, 0.4), 1000, classes...)
	sawBus, sawCar := false, false
	agree := 0
	for i, l := range set.Samples {
		okCar := l.Has[0] == (truth[i].TargetCount(frame.ClassCar) > 0)
		okBus := l.Has[1] == (truth[i].TargetCount(frame.ClassBus) > 0)
		if okCar && okBus {
			agree++
		}
		if l.Has[1] {
			sawBus = true
		}
		if l.Has[0] {
			sawCar = true
		}
	}
	if !sawBus || !sawCar {
		t.Fatal("mixed stream did not produce both classes")
	}
	if rate := float64(agree) / float64(len(set.Samples)); rate < 0.95 {
		t.Fatalf("multi-label agreement %.3f", rate)
	}
}

func TestTrainMultiSNM(t *testing.T) {
	classes := []frame.Class{frame.ClassCar, frame.ClassBus}
	set, _ := collect(mixedStream(62, 0.45), 1600, classes...)
	res, err := TrainMultiSNM(set, DefaultSNMConfig())
	if err != nil {
		t.Fatal(err)
	}
	for j, acc := range res.TestAccuracy {
		if acc < 0.7 {
			t.Errorf("class %v held-out accuracy %.2f, want >= 0.7", classes[j], acc)
		}
		if res.CLow[j] > res.CHigh[j] {
			t.Errorf("class %v thresholds inverted", classes[j])
		}
	}

	// The multi filter must keep frames containing either class.
	msnm := filters.NewMultiSNM(res.Net, res.CLow, res.CHigh, 0.5)
	valCfg := mixedStream(63, 0.45)
	valCfg.BGSeed = 62
	val := vidgen.New(valCfg)
	kept, total := 0, 0
	bgDropped, bgTotal := 0, 0
	for i := 0; i < 800; i++ {
		f := val.Next()
		hasAny := f.Truth.TargetCount(frame.ClassCar) > 0 || f.Truth.TargetCount(frame.ClassBus) > 0
		solid := false
		for _, b := range f.Truth.Boxes {
			if b.Visible >= 0.6 {
				solid = true
			}
		}
		v := msnm.Process(f)
		if hasAny && solid {
			total++
			if v == filters.Pass {
				kept++
			}
		} else if len(f.Truth.Boxes) == 0 {
			bgTotal++
			if v == filters.Drop {
				bgDropped++
			}
		}
	}
	if total < 100 || bgTotal < 100 {
		t.Fatalf("degenerate validation: targets=%d bg=%d", total, bgTotal)
	}
	if rate := float64(kept) / float64(total); rate < 0.8 {
		t.Errorf("multi-SNM kept only %.2f of either-class frames", rate)
	}
	if rate := float64(bgDropped) / float64(bgTotal); rate < 0.6 {
		t.Errorf("multi-SNM dropped only %.2f of background", rate)
	}
	if probs := msnm.LastProbs(); len(probs) != 2 {
		t.Fatalf("LastProbs len = %d", len(probs))
	}
}

func TestTrainMultiSNMValidation(t *testing.T) {
	if _, err := TrainMultiSNM(NewSet(detect.NewOracle(detect.DefaultOracleConfig())), DefaultSNMConfig()); err == nil {
		t.Fatal("expected error for no classes")
	}
	set, _ := collect(mixedStream(64, 0.0), 200, frame.ClassCar)
	// All-negative corpus: car pool empty.
	for _, s := range set.Samples {
		s.Has[0] = false
	}
	if _, err := TrainMultiSNM(set, DefaultSNMConfig()); err == nil {
		t.Fatal("expected error for empty class pool")
	}
}

// TestTrainMultiSNMGolden pins one two-class training bit for bit — the
// weights' FNV-64a (float32 bits, little-endian, Params order) and the
// bit patterns of every threshold and accuracy — recorded at commit
// 3464112, before ISSUE 21 touched the trainer; the lab package holds the
// same for the two single-target cameras.
func TestTrainMultiSNMGolden(t *testing.T) {
	set, _ := collect(mixedStream(62, 0.45), 600, frame.ClassCar, frame.ClassBus)
	res, err := TrainMultiSNM(set, DefaultSNMConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, p := range res.Net.Params() {
		for _, v := range p.Val.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != 0x23d1b41a63b1049e {
		t.Errorf("weights hash %016x, golden 23d1b41a63b1049e", got)
	}
	want := [2][3]uint64{ // clow, chigh, accuracy per class
		{0x3f658d6000000000, 0x3fd1072bc0000000, 0x3fe82d82d82d82d8},
		{0x3f85562340000000, 0x3fe3285440000000, 0x3fec71c71c71c71c},
	}
	for j, w := range want {
		got := [3]uint64{math.Float64bits(res.CLow[j]), math.Float64bits(res.CHigh[j]), math.Float64bits(res.TestAccuracy[j])}
		if got != w {
			t.Errorf("class %v: clow/chigh/accuracy bits %016x, golden %016x", res.Classes[j], got, w)
		}
	}
}

func TestMultiSNMThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched threshold bands")
		}
	}()
	filters.NewMultiSNM(nil, []float64{0.1}, []float64{0.2, 0.3}, 0.5)
}
