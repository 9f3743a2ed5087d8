// Command ffsvideo records synthetic surveillance footage to FFS-VA's
// stored-video format and analyzes stored files offline — the paper's
// post-facto analysis scenario, where a day of recorded video is searched
// for events as fast as possible.
//
//	ffsvideo record -o clip.fvs -frames 3000 -workload car -tor 0.1
//	ffsvideo analyze clip.fvs
//
// Analysis trains the stream-specialized models from the head of the file
// (labels come from the reference model, paper §4.1), then runs the full
// cascade over the remainder and reports throughput and accuracy.
package main

import (
	"flag"
	"fmt"
	"os"

	"ffsva/internal/core"
	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/pipeline"
	"ffsva/internal/train"
	"ffsva/internal/vclock"
	"ffsva/internal/video"
	"ffsva/internal/vidgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "analyze":
		analyze(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ffsvideo record|analyze [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "clip.fvs", "output file")
	frames := fs.Int("frames", 3000, "frames to record")
	workload := fs.String("workload", "car", "car or person")
	tor := fs.Float64("tor", 0.10, "target-object ratio")
	seed := fs.Int64("seed", 11, "camera seed")
	gate := fs.Int("gate", 4, "noise gate (0 = lossless)")
	fs.Parse(args)

	target := frame.ClassCar
	if *workload == "person" {
		target = frame.ClassPerson
	}
	cfg := vidgen.Small(*seed, target, *tor)
	src := vidgen.New(cfg)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w, err := video.NewWriter(f, cfg.W, cfg.H, cfg.FPS)
	if err != nil {
		fatal(err)
	}
	w.Gate = uint8(*gate)
	for i := 0; i < *frames; i++ {
		if err := w.WriteFrame(src.Next()); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	st, _ := f.Stat()
	raw := int64(*frames) * int64(cfg.W) * int64(cfg.H)
	fmt.Printf("recorded %d frames (%dx%d, %s, TOR %.2f) to %s: %d bytes (%.1fx compression)\n",
		*frames, cfg.W, cfg.H, target, *tor, *out, st.Size(), float64(raw)/float64(st.Size()))
}

func analyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	workload := fs.String("workload", "car", "target class recorded in the file: car or person")
	trainFrames := fs.Int("train-frames", 1200, "frames from the head of the file used for training")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ffsvideo analyze [flags] <file.fvs>")
		os.Exit(2)
	}
	path := fs.Arg(0)
	target := frame.ClassCar
	if *workload == "person" {
		target = frame.ClassPerson
	}

	// Pass 1: train from the head of the file.
	src, err := video.OpenFile(path, 0)
	if err != nil {
		fatal(err)
	}
	hdr := src.Header()
	total := int(hdr.Frames)
	if total <= *trainFrames+100 {
		fatal(fmt.Errorf("file holds %d frames; need > train-frames+100", total))
	}
	fmt.Printf("%s: %d frames %dx%d @ %d FPS\n", path, total, hdr.W, hdr.H, hdr.FPS)
	fmt.Printf("training on the first %d frames...\n", *trainFrames)
	sddFit, snmRes, err := train.Fit(src, *trainFrames, detect.NewOracle(detect.DefaultOracleConfig()), target)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SDD delta %.1f; SNM held-out accuracy %.0f%%\n", sddFit.Delta, 100*snmRes.TestAccuracy)

	// Pass 2: run the cascade over the remainder, offline.
	clk := vclock.NewVirtual()
	pcfg := pipeline.DefaultConfig(clk)
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	spec := pipeline.StreamSpec{
		ID:      0,
		Source:  src,
		Frames:  total - *trainFrames,
		FPS:     hdr.FPS,
		SeqBase: int64(*trainFrames),
		SDD:     filters.NewSDD(sddFit.Ref, sddFit.Delta, filters.MetricMSE),
		SNM:     filters.NewSNM(snmRes.Net, snmRes.CLow, snmRes.CHigh, 0.5),
		TYolo:   filters.NewTYolo(tg, target, 1),
		Target:  target,
	}
	rep := pipeline.New(pcfg, []pipeline.StreamSpec{spec}).Run()
	src.Close()

	fmt.Println()
	fmt.Println(rep)
	acc := core.Analyze(rep.Streams[0].Records, 1)
	fmt.Printf("\naccuracy: %v\n", acc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffsvideo:", err)
	os.Exit(1)
}
