package lab

import (
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/train"
	"ffsva/internal/vidgen"
)

// TestSceneSwitchEndToEnd is the §5.5 scene switch: a camera is moved
// mid-stream, its trained SDD degrades to passing everything, and
// training afresh on the new scene with train.Fit restores filtering.
func TestSceneSwitchEndToEnd(t *testing.T) {
	const switchAt, window, refit, frames = 1200, 200, 500, 3600
	cam, err := CarCamera(0.15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cam.Template
	cfg.StreamID = 7
	cfg.Seed = 4242
	cfg.TOR = 0.15
	cfg.SceneSwitchFrame = switchAt
	cfg.SceneSwitchBGSeed = 999
	src := vidgen.New(cfg)

	// The SDD reference EMA adapts only on *dropped* frames, so a moved
	// camera (everything passes) leaves the reference stale and the pass
	// rate saturated, while ordinary illumination drift keeps being
	// absorbed.
	sdd := filters.NewSDD(cam.SDD.Ref, cam.SDD.Delta, filters.MetricMSE)
	dropRate := func(n int) float64 {
		drops := 0
		for i := 0; i < n; i++ {
			if sdd.Process(src.Next()) == filters.Drop {
				drops++
			}
		}
		return float64(drops) / float64(n)
	}

	before := dropRate(switchAt)
	if before < 0.5 {
		t.Fatalf("pre-switch SDD drop rate %.2f unexpectedly low", before)
	}
	if pass := 1 - dropRate(window); pass < 0.95 {
		t.Fatalf("stale SDD passed %.2f of the %d frames after the switch, want >= 0.95", pass, window)
	}
	// Train afresh on the next frames of the new scene.
	fit, _, err := train.Fit(src, refit, detect.NewOracle(detect.DefaultOracleConfig()), frame.ClassCar)
	if err != nil {
		t.Fatalf("retrain: %v", err)
	}
	sdd = filters.NewSDD(fit.Ref, fit.Delta, filters.MetricMSE)
	after := dropRate(frames - switchAt - window - refit)
	if after < before-0.25 {
		t.Fatalf("post-retrain drop rate %.2f did not recover toward pre-switch %.2f", after, before)
	}
	t.Logf("drop rate: %.3f before the switch, %.3f after retraining", before, after)
}
