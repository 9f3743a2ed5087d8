// Command ffstrain runs the paper's per-stream training procedure (§4.1)
// for one synthetic camera and reports the fitted artifacts: the SDD
// reference/threshold, the SNM's held-out accuracy and clow/chigh
// thresholds, and end-to-end filter behaviour on a fresh validation
// slice. Nothing is written to disk: every program trains a camera in
// process (lab.TrainCamera caches it per process), as the paper trains
// each stream's models once (§4.1). The last line of the report is what
// the training cost this process: wall time, heap traffic, collections
// and peak resident set.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/train"
	"ffsva/internal/vclock"
	"ffsva/internal/vidgen"
)

func main() {
	workload := flag.String("workload", "car", "car or person")
	tor := flag.Float64("tor", 0.3, "training slice target-object ratio")
	frames := flag.Int("frames", 1500, "training frames")
	seed := flag.Int64("seed", 101, "camera seed")
	flag.Parse()

	target := frame.ClassCar
	if *workload == "person" {
		target = frame.ClassPerson
	}
	cfg := vidgen.Small(*seed, target, *tor)

	fmt.Printf("generating %d labeled frames (%s, TOR %.2f)...\n", *frames, target, *tor)
	// Training is the one process of a paced clock and takes no virtual
	// time, so the clock's host lag is the training's wall time.
	wall := vclock.NewPaced()
	var sdd train.SDDFit
	var snm train.SNMResult
	wall.Go("train", func() { sdd, snm = trainCamera(cfg, target, *frames) })
	wall.Run()
	trained := wall.HostLag()
	fmt.Printf("SNM: %v\n", snm.Net)
	fmt.Printf("SNM: held-out accuracy %.1f%%, clow=%.3f chigh=%.3f\n",
		100*snm.TestAccuracy, snm.CLow, snm.CHigh)

	// Validate on a fresh slice of the same camera.
	valCfg := cfg
	valCfg.Seed = cfg.Seed + 977
	valCfg.BGSeed = cfg.Seed
	val := vidgen.New(valCfg)
	sddF := filters.NewSDD(sdd.Ref, sdd.Delta, filters.MetricMSE)
	snmF := filters.NewSNM(snm.Net, snm.CLow, snm.CHigh, 0.5)
	kept, bgDropped, bg, tg := 0, 0, 0, 0
	for i := 0; i < 1000; i++ {
		f := val.Next()
		isTarget := f.Truth.TargetCount(target) > 0
		v := sddF.Process(f)
		if v == filters.Pass {
			v = snmF.Process(f)
		}
		if isTarget {
			tg++
			if v == filters.Pass {
				kept++
			}
		} else if len(f.Truth.Boxes) == 0 {
			bg++
			if v == filters.Drop {
				bgDropped++
			}
		}
		f.Release()
	}
	fmt.Printf("validation (fresh slice): kept %d/%d target frames, dropped %d/%d background frames\n",
		kept, tg, bgDropped, bg)

	// The process so far is one camera's training plus a validation that
	// recycles one frame and allocates next to nothing, so the
	// process-wide counters are the training's.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	fmt.Printf("cost: trained in %.2f s; process allocated %.1f MB in %d objects over %d collections, peak RSS %.1f MB\n",
		trained.Seconds(), float64(ms.TotalAlloc)/1e6, ms.Mallocs, ms.NumGC, float64(ru.Maxrss)/1024)

}

// trainCamera labels frames from the camera and fits its SDD and SNM,
// reporting progress; a failure ends the process.
func trainCamera(cfg vidgen.Config, target frame.Class, frames int) (train.SDDFit, train.SNMResult) {
	set := train.NewSet(detect.NewOracle(detect.DefaultOracleConfig()), target)
	set.AddFrom(vidgen.New(cfg), frames)
	pos := 0
	for _, s := range set.Samples {
		if s.Has {
			pos++
		}
	}
	fmt.Printf("labels: %d positive / %d negative\n", pos, len(set.Samples)-pos)

	sdd, err := train.FitSDD(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffstrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("SDD: delta(MSE) = %.2f over a %dx%d reference image\n", sdd.Delta, sdd.Ref.W, sdd.Ref.H)

	fmt.Println("training SNM (CONV, CONV, FC)...")
	snm, err := train.TrainSNM(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffstrain: %v\n", err)
		os.Exit(1)
	}
	return sdd, snm
}
