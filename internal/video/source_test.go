package video

import (
	"os"
	"path/filepath"
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/pipeline"
	"ffsva/internal/train"
	"ffsva/internal/vclock"
	"ffsva/internal/vidgen"
)

// TestFileSourceThroughPipeline locks in the full stored-video workflow:
// record a synthetic clip, train from its head, run the cascade over the
// remainder via a FileSource, and verify conservation and filtering.
func TestFileSourceThroughPipeline(t *testing.T) {
	const (
		total    = 1400
		trainLen = 800
	)
	cfg := vidgen.Small(93, frame.ClassCar, 0.25)
	src := vidgen.New(cfg)

	path := filepath.Join(t.TempDir(), "clip.fvs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, cfg.W, cfg.H, cfg.FPS)
	if err != nil {
		t.Fatal(err)
	}
	w.Gate = 4
	for i := 0; i < total; i++ {
		if err := w.WriteFrame(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fileSrc, err := OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fileSrc.Close()
	if fileSrc.Header().Frames != total {
		t.Fatalf("header frames = %d", fileSrc.Header().Frames)
	}

	set := train.NewSet(detect.NewOracle(detect.DefaultOracleConfig()), frame.ClassCar)
	set.AddFrom(fileSrc, trainLen)
	sddFit, err := train.FitSDD(set)
	if err != nil {
		t.Fatal(err)
	}
	snmRes, err := train.TrainSNM(set)
	if err != nil {
		t.Fatal(err)
	}

	clk := vclock.NewVirtual()
	pcfg := pipeline.DefaultConfig(clk)
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	spec := pipeline.StreamSpec{
		ID:      0,
		Source:  fileSrc,
		Frames:  total - trainLen,
		FPS:     cfg.FPS,
		SeqBase: trainLen,
		SDD:     filters.NewSDD(sddFit.Ref, sddFit.Delta, filters.MetricMSE),
		SNM:     filters.NewSNM(snmRes.Net, snmRes.CLow, snmRes.CHigh, 0.5),
		TYolo:   filters.NewTYolo(tg, frame.ClassCar, 1),
		Target:  frame.ClassCar,
	}
	rep := pipeline.New(pcfg, []pipeline.StreamSpec{spec}).Run()

	sr := rep.Streams[0]
	var sum int64
	for _, c := range sr.Counts {
		sum += c
	}
	if sum != int64(total-trainLen) {
		t.Fatalf("dispositions sum %d, want %d", sum, total-trainLen)
	}
	// The noise gate must not break filtering: the SDD still drops most
	// background and the reference model sees a filtered fraction.
	if ratio := rep.StageRatio(2); ratio > 0.7 {
		t.Errorf("SDD passed %.2f of stored frames; gating broke the reference image fit", ratio)
	}
	if ratio := rep.StageRatio(4); ratio > 0.55 {
		t.Errorf("reference stage saw %.2f of frames at TOR 0.25", ratio)
	}
	// Annotations survived the file round trip into the records.
	withTruth := 0
	for _, rec := range sr.Records {
		if rec.TruthCount >= 0 {
			withTruth++
		}
	}
	if withTruth != total-trainLen {
		t.Fatalf("only %d records carried ground truth", withTruth)
	}
}

func TestFileSourcePanicsPastEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.fvs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 8, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(frame.New(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src, err := OpenFile(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if g := src.Next(); g.StreamID != 7 {
		t.Fatalf("stream id = %d", g.StreamID)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading past end")
		}
	}()
	src.Next()
}
