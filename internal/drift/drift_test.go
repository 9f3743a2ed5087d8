package drift

import (
	"testing"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/lab"
	"ffsva/internal/train"
	"ffsva/internal/vidgen"
)

func TestMonitorFiresOnSaturation(t *testing.T) {
	m := NewMonitor(Config{Window: 10, Thresh: 0.9, Cooldown: 20})
	fired := false
	// 9 passes in a 10-window: below threshold until the 10th.
	for i := 0; i < 9; i++ {
		if m.Observe(true) {
			t.Fatalf("fired early at %d", i)
		}
	}
	if m.Observe(true) {
		fired = true
	}
	if !fired {
		t.Fatal("monitor did not fire on a saturated window")
	}
	if m.Signals() != 1 {
		t.Fatalf("signals = %d", m.Signals())
	}
}

func TestMonitorQuietOnNormalTraffic(t *testing.T) {
	m := NewMonitor(Config{Window: 20, Thresh: 0.95, Cooldown: 10})
	for i := 0; i < 1000; i++ {
		// 50% pass rate: ordinary busy camera.
		if m.Observe(i%2 == 0) {
			t.Fatalf("false drift at %d", i)
		}
	}
}

func TestMonitorCooldown(t *testing.T) {
	m := NewMonitor(Config{Window: 5, Thresh: 0.9, Cooldown: 50})
	fires := 0
	for i := 0; i < 40; i++ {
		if m.Observe(true) {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("fires = %d during cooldown, want 1", fires)
	}
}

func TestMonitorInvalidConfigFallsBack(t *testing.T) {
	m := NewMonitor(Config{})
	if len(m.buf) != DefaultConfig().Window {
		t.Fatal("invalid config did not fall back to defaults")
	}
}

// TestSceneSwitchEndToEnd is the §5.5 scenario: a camera is moved
// mid-stream; the trained SDD degrades to passing everything, the
// monitor fires, retraining on fresh labeled frames restores filtering.
func TestSceneSwitchEndToEnd(t *testing.T) {
	const switchAt = 1200
	cam, err := lab.CarCamera(0.15)
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

	// Note the SDD reference EMA adapts only on *dropped* frames, so a
	// moved camera (everything passes) leaves the reference stale and
	// the pass rate saturated — exactly the monitor's signal — while
	// ordinary illumination drift keeps being absorbed.
	sdd := filters.NewSDD(cam.SDD.Ref, cam.SDD.Delta, filters.MetricMSE)

	mon := NewMonitor(Config{Window: 200, Thresh: 0.95, Cooldown: 400})
	oracle := detect.NewOracle(detect.DefaultOracleConfig())

	dropBefore, nBefore := 0, 0
	driftAt := -1
	var retrained bool
	dropAfter, nAfter := 0, 0

	for i := 0; i < 3600; i++ {
		f := src.Next()
		v := sdd.Process(f)
		if i < switchAt {
			nBefore++
			if v == filters.Drop {
				dropBefore++
			}
		}
		if retrained {
			nAfter++
			if v == filters.Drop {
				dropAfter++
			}
		}
		if driftAt < 0 && mon.Observe(v == filters.Pass) {
			driftAt = i
			// Train afresh on the next 500 frames of the new scene.
			fit, _, err := train.Fit(src, 500, oracle, frame.ClassCar)
			i += 500
			if err != nil {
				t.Fatalf("retrain: %v", err)
			}
			sdd = filters.NewSDD(fit.Ref, fit.Delta, filters.MetricMSE)
			retrained = true
		}
	}

	if driftAt < switchAt {
		t.Fatalf("drift fired before the scene switch (at %d)", driftAt)
	}
	if driftAt < 0 {
		t.Fatal("drift never detected after scene switch")
	}
	if driftAt > switchAt+800 {
		t.Fatalf("drift detected too late: frame %d for switch at %d", driftAt, switchAt)
	}
	if !retrained || nAfter < 300 {
		t.Fatalf("retrain did not happen or too few post-retrain frames (%d)", nAfter)
	}
	before := float64(dropBefore) / float64(nBefore)
	after := float64(dropAfter) / float64(nAfter)
	if before < 0.5 {
		t.Fatalf("pre-switch SDD drop rate %.2f unexpectedly low", before)
	}
	if after < before-0.25 {
		t.Fatalf("post-retrain drop rate %.2f did not recover toward pre-switch %.2f", after, before)
	}
}

func TestSceneSwitchChangesPixels(t *testing.T) {
	cfg := vidgen.Small(5, frame.ClassCar, 0.0)
	cfg.SceneSwitchFrame = 10
	cfg.NoiseAmp = 0
	cfg.LightAmp = 0
	src := vidgen.New(cfg)
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
