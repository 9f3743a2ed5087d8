package pipeline_test

import (
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// build assembles a virtual-clock system of n identical car streams.
func build(t *testing.T, clk *vclock.VirtualClock, n int, tor float64, frames int, mutate func(*pipeline.Config)) *pipeline.System {
	t.Helper()
	cam, err := lab.CarCamera(tor)
	if err != nil {
		t.Fatal(err)
	}
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	cfg := pipeline.DefaultConfig(clk)
	if mutate != nil {
		mutate(&cfg)
	}
	specs := make([]pipeline.StreamSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = cam.Stream(i, tg, lab.StreamOptions{Seed: int64(1000 + i), Frames: frames})
	}
	return pipeline.New(cfg, specs)
}

func checkConservation(t *testing.T, rep *pipeline.Report) {
	t.Helper()
	for _, sr := range rep.Streams {
		var sum int64
		for _, c := range sr.Counts {
			sum += c
		}
		if sum != int64(sr.Frames) {
			t.Errorf("stream %d: dispositions %v sum %d, want %d", sr.ID, sr.Counts, sum, sr.Frames)
		}
		for seq, rec := range sr.Records {
			if !rec.Done {
				t.Fatalf("stream %d: frame %d never decided", sr.ID, seq)
			}
			if rec.Decided < rec.Captured {
				t.Fatalf("stream %d frame %d: decided %v before captured %v", sr.ID, seq, rec.Decided, rec.Captured)
			}
		}
		// Stage-to-stage conservation.
		if sr.SDDStats.Processed != sr.Ingested {
			t.Errorf("stream %d: SDD processed %d != ingested %d", sr.ID, sr.SDDStats.Processed, sr.Ingested)
		}
		if sr.SNMStats.Processed != sr.SDDStats.Passed {
			t.Errorf("stream %d: SNM processed %d != SDD passed %d", sr.ID, sr.SNMStats.Processed, sr.SDDStats.Passed)
		}
		if sr.TYoloStats.Processed != sr.SNMStats.Passed {
			t.Errorf("stream %d: T-YOLO processed %d != SNM passed %d", sr.ID, sr.TYoloStats.Processed, sr.SNMStats.Passed)
		}
	}
	var refIn int64
	for _, sr := range rep.Streams {
		refIn += sr.TYoloStats.Passed
	}
	if rep.StageProcessed[4] != refIn {
		t.Errorf("ref processed %d != T-YOLO passed %d", rep.StageProcessed[4], refIn)
	}
}

func TestOfflineSingleStream(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := build(t, clk, 1, 0.103, 1200, nil)
	rep := sys.Run()
	checkConservation(t, rep)
	if rep.Throughput < 100 {
		t.Errorf("offline throughput %.1f FPS, expected well above real time", rep.Throughput)
	}
	// The cascade must be filtering: the reference model sees a small
	// fraction of frames at a 10% TOR.
	if ratio := rep.StageRatio(4); ratio > 0.35 {
		t.Errorf("reference stage saw %.2f of frames at TOR 0.1", ratio)
	}
	t.Logf("offline 1 stream: %v", rep)
}

func TestOnlineKeepsRealTime(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := build(t, clk, 4, 0.103, 450, func(c *pipeline.Config) { c.Mode = pipeline.Online })
	rep := sys.Run()
	checkConservation(t, rep)
	if !rep.Realtime {
		for _, sr := range rep.Streams {
			t.Logf("stream %d lag %v", sr.ID, sr.IngestLag)
		}
		t.Fatal("4 streams at TOR 0.1 should hold real time")
	}
	// Online throughput equals the capture rate.
	if rep.PerStreamFPS < 28 || rep.PerStreamFPS > 32 {
		t.Errorf("per-stream FPS = %.1f, want ~30", rep.PerStreamFPS)
	}
}

func TestOnlineOverloadDetected(t *testing.T) {
	clk := vclock.NewVirtual()
	costs := device.Calibrated()
	// A reference model 10× slower guarantees overload even on 1 stream.
	c := costs[device.ModelRef]
	c.PerFrame = 150 * time.Millisecond
	costs[device.ModelRef] = c
	sys := build(t, clk, 1, 1.0, 450, func(cfg *pipeline.Config) {
		cfg.Mode = pipeline.Online
		cfg.Costs = costs
		cfg.IngestBuffer = 60 // 2 s: the 15 s run must overflow it
	})
	rep := sys.Run()
	checkConservation(t, rep)
	if rep.Realtime {
		t.Fatal("overloaded configuration reported as real-time")
	}
}

func TestQueueDepthsRespected(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := build(t, clk, 2, 0.3, 600, nil)
	rep := sys.Run()
	checkConservation(t, rep)
	_ = rep
}

func TestDeterministicUnderVirtualClock(t *testing.T) {
	run := func() (float64, time.Duration) {
		clk := vclock.NewVirtual()
		sys := build(t, clk, 2, 0.2, 400, nil)
		rep := sys.Run()
		return rep.Throughput, rep.LatencyMean
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", t1, l1, t2, l2)
	}
}

func TestDynamicBatchLowersLatency(t *testing.T) {
	run := func(p pipeline.BatchPolicy, batch int) *pipeline.Report {
		clk := vclock.NewVirtual()
		sys := build(t, clk, 3, 0.2, 500, func(c *pipeline.Config) {
			c.Mode = pipeline.Online
			c.BatchPolicy = p
			c.BatchSize = batch
			c.DepthSNM = 64
		})
		return sys.Run()
	}
	fb := run(pipeline.BatchFeedback, 30)
	dyn := run(pipeline.BatchDynamic, 30)
	if dyn.LatencyMean >= fb.LatencyMean {
		t.Errorf("dynamic batch latency %v not below feedback %v at batch 30",
			dyn.LatencyMean, fb.LatencyMean)
	}
	t.Logf("feedback: lat=%v thpt=%.0f; dynamic: lat=%v thpt=%.0f",
		fb.LatencyMean, fb.Throughput, dyn.LatencyMean, dyn.Throughput)
}

func TestStaticBatchThroughputGrowsWithBatch(t *testing.T) {
	run := func(batch int) *pipeline.Report {
		clk := vclock.NewVirtual()
		sys := build(t, clk, 2, 0.103, 600, func(c *pipeline.Config) {
			c.BatchPolicy = pipeline.BatchStatic
			c.BatchSize = batch
		})
		return sys.Run()
	}
	small := run(1)
	big := run(30)
	// At low TOR the SNM stage is the GPU-0 bottleneck, so amortizing
	// its activation cost must show up in throughput.
	if big.Throughput <= small.Throughput {
		t.Errorf("static batch 30 throughput %.0f not above batch 1 %.0f",
			big.Throughput, small.Throughput)
	}
}

func TestSharedTYoloFairness(t *testing.T) {
	// With several identical streams, the shared T-YOLO must serve all
	// of them: every stream's T-YOLO queue drains and per-stream
	// detected counts are in the same ballpark.
	clk := vclock.NewVirtual()
	sys := build(t, clk, 4, 0.4, 500, nil)
	rep := sys.Run()
	checkConservation(t, rep)
	var lo, hi int64 = 1 << 62, -1
	for _, sr := range rep.Streams {
		n := sr.TYoloStats.Processed
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == 0 {
		t.Fatal("a stream was starved at the shared T-YOLO stage")
	}
	if float64(hi) > 3*float64(lo) {
		t.Errorf("T-YOLO service imbalance: min %d max %d", lo, hi)
	}
}

func TestReportStageRatiosMonotone(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := build(t, clk, 1, 0.25, 800, nil)
	rep := sys.Run()
	prev := 1.0
	for i := 0; i < 5; i++ {
		r := rep.StageRatio(i)
		if r > prev+1e-9 {
			t.Fatalf("stage %d ratio %.3f exceeds previous %.3f", i, r, prev)
		}
		prev = r
	}
}

// TestFilterGPUsSpreadLoad verifies §4.3.2 multi-GPU distribution at the
// unit level: with two filter GPUs, both carry work and a filter-bound
// workload runs markedly faster.
func TestFilterGPUsSpreadLoad(t *testing.T) {
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(gpus int) *pipeline.Report {
		clk := vclock.NewVirtual()
		cfg := pipeline.DefaultConfig(clk)
		cfg.FilterGPUs = gpus
		tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
		specs := make([]pipeline.StreamSpec, 4)
		for i := range specs {
			// A high object-count threshold keeps the reference model
			// light, so the filter GPUs are the binding stage.
			specs[i] = cam.Stream(i, tg, lab.StreamOptions{
				Seed: int64(1500 + i), Frames: 600, NumberOfObjects: 3,
			})
		}
		return pipeline.New(cfg, specs).Run()
	}
	one := run(1)
	two := run(2)
	checkConservation(t, two)
	if len(two.FilterGPUUtils) != 2 {
		t.Fatalf("FilterGPUUtils = %v", two.FilterGPUUtils)
	}
	for i, u := range two.FilterGPUUtils {
		if u <= 0.05 {
			t.Errorf("filter GPU %d idle (%.2f); load not distributed", i, u)
		}
	}
	if two.Throughput < one.Throughput*1.2 {
		t.Errorf("2 filter GPUs: %.0f FPS vs %.0f with 1; expected a clear gain",
			two.Throughput, one.Throughput)
	}
}
