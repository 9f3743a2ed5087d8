package device

import (
	"testing"
	"time"

	"ffsva/internal/vclock"
)

func TestUseChargesServiceTime(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu1", GPU, 1)
	clk.Go("stage", func() {
		gpu.Use(ModelRef, 1, cm)
		if got, want := clk.Now(), cm[ModelRef].PerFrame; got != want {
			t.Errorf("one ref frame took %v, want %v", got, want)
		}
	})
	clk.Run()
}

func TestBatchAmortizesActivation(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu0", GPU, 1)
	var tBatch time.Duration
	clk.Go("stage", func() {
		start := clk.Now()
		gpu.Use(ModelSNM, 30, cm)
		tBatch = clk.Now() - start
	})
	clk.Run()
	want := cm[ModelSNM].Activate + 30*cm[ModelSNM].PerFrame
	if tBatch != want {
		t.Fatalf("batch of 30 took %v, want %v", tBatch, want)
	}
	// Per-frame cost in the batch must be far below 30 single-frame uses
	// with model switches in between.
	perFrameBatched := tBatch / 30
	singleSwitched := cm[ModelSNM].Activate + cm[ModelSNM].PerFrame
	if perFrameBatched*5 > singleSwitched {
		t.Fatalf("batching gives only %v vs %v single", perFrameBatched, singleSwitched)
	}
}

func TestModelSwitchCostOnlyOnChange(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu0", GPU, 1)
	clk.Go("stage", func() {
		gpu.Use(ModelSNM, 1, cm) // switch none->snm
		gpu.Use(ModelSNM, 1, cm) // no switch
		gpu.Use(ModelTYolo, 1, cm)
		gpu.Use(ModelSNM, 1, cm)
	})
	clk.Run()
	if got := gpu.Stats().Switches; got != 3 {
		t.Fatalf("switches = %d, want 3", got)
	}
	want := 3*cm[ModelSNM].PerFrame + 2*cm[ModelSNM].Activate +
		cm[ModelTYolo].PerFrame + cm[ModelTYolo].Activate
	if got := gpu.Stats().Busy; got != want {
		t.Fatalf("busy = %v, want %v", got, want)
	}
}

func TestMultiCoreCPUNoSwitchCostAndParallel(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	cpu := New(clk, "cpu", CPU, 4)
	done := 0
	for i := 0; i < 4; i++ {
		clk.Go("sdd", func() {
			for j := 0; j < 100; j++ {
				cpu.Use(ModelSDD, 1, cm)
			}
			done++
		})
	}
	clk.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// Four parallel workers on four slots: elapsed ≈ serial time of one.
	want := 100 * cm[ModelSDD].PerFrame
	if clk.Now() != want {
		t.Fatalf("elapsed %v, want %v (full parallelism)", clk.Now(), want)
	}
	if sw := cpu.Stats().Switches; sw != 0 {
		t.Fatalf("CPU counted %d model switches, want 0", sw)
	}
}

func TestContentionSerializes(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu", GPU, 1)
	for i := 0; i < 3; i++ {
		clk.Go("user", func() {
			gpu.Use(ModelRef, 10, cm)
		})
	}
	clk.Run()
	want := 30 * cm[ModelRef].PerFrame
	if clk.Now() != want {
		t.Fatalf("elapsed %v, want %v (serialized)", clk.Now(), want)
	}
}

func TestUtilization(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu", GPU, 1)
	clk.Go("user", func() {
		gpu.Use(ModelRef, 10, cm)
		clk.Sleep(10 * cm[ModelRef].PerFrame) // idle as long as busy
	})
	clk.Run()
	if u := gpu.Utilization(clk.Now()); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if gpu.Utilization(0) != 0 {
		t.Fatal("utilization at zero elapsed should be 0")
	}
}

func TestUseResize(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	cpu := New(clk, "cpu", CPU, 2)
	clk.Go("stage", func() {
		d := cpu.UseResize(ModelTYolo, 5, cm)
		if want := 5 * cm[ModelTYolo].Resize; d != want {
			t.Errorf("resize charge %v, want %v", d, want)
		}
		if d := cpu.UseResize(ModelRef, 5, cm); d != 0 {
			t.Errorf("ref resize charge %v, want 0", d)
		}
	})
	clk.Run()
}

func TestServedCountsUseAndResize(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	cpu := New(clk, "cpu", CPU, 2)
	clk.Go("stage", func() {
		cpu.Use(ModelSDD, 7, cm)
		cpu.UseResize(ModelTYolo, 5, cm)
	})
	clk.Run()
	if got := cpu.Stats().Served; got != 12 {
		t.Fatalf("served = %d, want 12 (Use and UseResize both count)", got)
	}
}

func TestSetAdjustScalesServiceTime(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu1", GPU, 1)
	gpu.SetAdjust(func(now, dur time.Duration) time.Duration { return 2 * dur })
	clk.Go("stage", func() {
		gpu.Use(ModelRef, 1, cm)
		if got, want := clk.Now(), 2*cm[ModelRef].PerFrame; got != want {
			t.Errorf("adjusted ref frame took %v, want %v", got, want)
		}
		d := gpu.UseResize(ModelTYolo, 1, cm)
		if want := 2 * cm[ModelTYolo].Resize; d != want {
			t.Errorf("adjusted resize charged %v, want %v", d, want)
		}
	})
	clk.Run()
	// A removed hook restores nominal service times.
	gpu.SetAdjust(nil)
	clk2 := vclock.NewVirtual()
	gpu2 := New(clk2, "gpu1", GPU, 1)
	gpu2.SetAdjust(func(now, dur time.Duration) time.Duration { return 2 * dur })
	gpu2.SetAdjust(nil)
	clk2.Go("stage", func() {
		gpu2.Use(ModelRef, 1, cm)
		if got, want := clk2.Now(), cm[ModelRef].PerFrame; got != want {
			t.Errorf("hook removal: ref frame took %v, want %v", got, want)
		}
	})
	clk2.Run()
}

func TestUseZeroFrames(t *testing.T) {
	clk := vclock.NewVirtual()
	gpu := New(clk, "gpu", GPU, 1)
	clk.Go("stage", func() {
		if d := gpu.Use(ModelRef, 0, Calibrated()); d != 0 {
			t.Errorf("zero-frame use charged %v", d)
		}
	})
	clk.Run()
	if clk.Now() != 0 {
		t.Fatal("zero-frame use advanced time")
	}
}

func TestCalibrationMatchesPaperSpeeds(t *testing.T) {
	cm := Calibrated()
	fps := func(m Model) float64 { return 1 / cm[m].PerFrame.Seconds() }
	if v := fps(ModelSDD); v < 50_000 || v > 200_000 {
		t.Errorf("SDD standalone %v FPS, paper ~100K", v)
	}
	if v := fps(ModelSNM); v < 3_000 || v > 8_000 {
		t.Errorf("SNM standalone %v FPS, paper ~5K", v)
	}
	if v := fps(ModelTYolo); v < 150 || v > 300 {
		t.Errorf("T-YOLO standalone %v FPS, paper ~220", v)
	}
	if v := fps(ModelRef); v < 55 || v > 80 {
		t.Errorf("YOLOv2 %v FPS, paper ~67", v)
	}
	if cm[ModelSDD].Resize != 40*time.Microsecond ||
		cm[ModelSNM].Resize != 150*time.Microsecond ||
		cm[ModelTYolo].Resize != 400*time.Microsecond {
		t.Error("resize costs diverge from paper §4.1 (40/150/400µs)")
	}
}

func TestInvalidSlotsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(vclock.NewVirtual(), "bad", CPU, 0)
}

// TestUseAllocatesNothing: once warm, a Use on a one-slot GPU that a
// second process contends for — so the call waits on the device's
// condition, sleeps its service time and signals the next user —
// allocates nothing.
func TestUseAllocatesNothing(t *testing.T) {
	clk := vclock.NewVirtual()
	cm := Calibrated()
	gpu := New(clk, "gpu0", GPU, 1)
	stop := false
	var allocs float64
	clk.Go("measured", func() {
		allocs = testing.AllocsPerRun(1000, func() { gpu.Use(ModelSNM, 1, cm) })
		stop = true
	})
	clk.Go("rival", func() {
		for !stop {
			gpu.Use(ModelTYolo, 1, cm)
		}
	})
	clk.Run()
	if allocs != 0 {
		t.Fatalf("device.Use allocated %v times per call", allocs)
	}
}
