// Scenedrift: the paper's §5.5 "Scene Switch" limitation in action. A
// camera is physically moved mid-stream, which invalidates its
// stream-specialized models: the SDD reference no longer matches
// anything, so the difference detector starts passing every frame and
// the cheap-filtering advantage evaporates. The drift monitor notices
// the saturated pass rate, triggers the §4.1 training procedure on
// freshly labeled frames of the new scene, and filtering efficiency
// recovers.
//
//	go run ./examples/scenedrift
package main

import (
	"fmt"
	"log"

	"ffsva/internal/detect"
	"ffsva/internal/drift"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/lab"
	"ffsva/internal/train"
	"ffsva/internal/vidgen"
)

func main() {
	const switchAt = 1500
	cam, err := lab.CarCamera(0.15)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cam.Template
	cfg.Seed = 777
	cfg.TOR = 0.15
	cfg.SceneSwitchFrame = switchAt // the camera moves here
	cfg.SceneSwitchBGSeed = 31337
	src := vidgen.New(cfg)

	sdd := filters.NewSDD(cam.SDD.Ref, cam.SDD.Delta, filters.MetricMSE)
	mon := drift.NewMonitor(drift.DefaultConfig())
	oracle := detect.NewOracle(detect.DefaultOracleConfig())

	window := struct{ drops, n int }{}
	report := func(phase string) {
		if window.n > 0 {
			fmt.Printf("%-28s SDD drop rate %.0f%% over %d frames\n",
				phase, 100*float64(window.drops)/float64(window.n), window.n)
		}
		window.drops, window.n = 0, 0
	}

	fmt.Printf("camera trained; scene switches at frame %d\n\n", switchAt)
	for i := 0; i < 5400; i++ {
		f := src.Next()
		v := sdd.Process(f)
		window.n++
		if v == filters.Drop {
			window.drops++
		}
		switch i {
		case switchAt - 1:
			report("before the switch:")
		}
		if mon.Observe(v == filters.Pass) {
			report("after switch, stale models:")
			fmt.Printf("drift detected at frame %d (window pass rate saturated)\n", i)
			fmt.Println("retraining on 500 freshly labeled frames of the new scene...")
			fit, snm, err := train.Fit(src, 500, oracle, frame.ClassCar)
			i += 500
			if err != nil {
				log.Fatal(err)
			}
			sdd = filters.NewSDD(fit.Ref, fit.Delta, filters.MetricMSE)
			fmt.Printf("retrained: SDD delta %.1f, SNM held-out accuracy %.0f%%\n\n",
				fit.Delta, 100*snm.TestAccuracy)
			window.drops, window.n = 0, 0
		}
	}
	report("after retraining:")
	fmt.Println("\n(the paper estimates ~1 hour to retrain a scene's models on their hardware)")
}
