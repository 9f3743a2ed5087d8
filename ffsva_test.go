package ffsva_test

import (
	"fmt"
	"strings"
	"testing"

	"ffsva"
)

// TestPublicAPIRoundTrip exercises the facade end to end: configure,
// run, and read both the performance report and the accuracy accounting.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := ffsva.DefaultConfig()
	cfg.Workload = ffsva.WorkloadCar
	cfg.TOR = 0.2
	cfg.Streams = 2
	cfg.FramesPerStream = 400
	cfg.Mode = ffsva.Online
	cfg.BatchPolicy = ffsva.BatchDynamic
	cfg.NumberOfObjects = 1

	res, err := ffsva.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Pipeline
	if rep.TotalFrames != 800 {
		t.Fatalf("frames = %d", rep.TotalFrames)
	}
	if len(rep.Streams) != 2 {
		t.Fatalf("streams = %d", len(rep.Streams))
	}
	var decided int64
	for _, sr := range rep.Streams {
		for _, rec := range sr.Records {
			if rec.Done {
				decided++
			}
		}
	}
	if decided != 800 {
		t.Fatalf("decided = %d", decided)
	}
	if res.Accuracy.Frames != 800 {
		t.Fatalf("accuracy frames = %d", res.Accuracy.Frames)
	}
	// Re-analysis through the facade agrees with the bundled result.
	var again ffsva.Accuracy
	for _, sr := range rep.Streams {
		again.Merge(ffsva.Analyze(sr.Records, cfg.NumberOfObjects))
	}
	if again != res.Accuracy {
		t.Fatalf("Analyze mismatch: %+v vs %+v", again, res.Accuracy)
	}
}

// TestPublicAPIDeterminism: identical configs produce identical results
// under the virtual clock, across workloads.
func TestPublicAPIDeterminism(t *testing.T) {
	for _, w := range []ffsva.WorkloadKind{ffsva.WorkloadCar, ffsva.WorkloadPerson} {
		cfg := ffsva.DefaultConfig()
		cfg.Workload = w
		cfg.TOR = 0.3
		cfg.FramesPerStream = 300
		a, err := ffsva.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ffsva.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Pipeline.Throughput != b.Pipeline.Throughput || a.Accuracy != b.Accuracy {
			t.Fatalf("workload %v nondeterministic", w)
		}
	}
}

// TestPublicAPIValidation surfaces config errors.
func TestPublicAPIValidation(t *testing.T) {
	cfg := ffsva.DefaultConfig()
	cfg.Streams = -1
	if _, err := ffsva.Run(cfg); err == nil {
		t.Fatal("expected error")
	}
}

// TestRunGolden pins one whole virtual-clock run — per-stream disposition
// counts, stream timing, and the report's latency fields — to values
// recorded before the per-pixel kernels were rewritten (ISSUE 14): every
// filter decision of every frame, and through the charged costs every
// model-time figure, must come out the same.
func TestRunGolden(t *testing.T) {
	cfg := ffsva.DefaultConfig()
	cfg.Workload = ffsva.WorkloadCar
	cfg.TOR = 0.3
	cfg.Streams = 4
	cfg.FramesPerStream = 300
	cfg.Mode = ffsva.Online
	res, err := ffsva.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Pipeline
	var b strings.Builder
	for _, sr := range rep.Streams {
		fmt.Fprintf(&b, "stream %d: ingested=%d counts=%v first=%d last=%d lag=%d\n",
			sr.ID, sr.Ingested, sr.Counts, sr.FirstCapture, sr.LastDone, sr.IngestLag)
	}
	fmt.Fprintf(&b, "elapsed=%d mean=%d p50=%d p95=%d p99=%d max=%d stages=%v\n",
		rep.Elapsed, rep.LatencyMean, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99, rep.LatencyMax, rep.StageProcessed)
	if got := b.String(); got != goldenRun {
		t.Fatalf("run differs from the recorded one:\n%s\nwant:\n%s", got, goldenRun)
	}
}

// Recorded at commit bfffb9b (the parent of the kernel rewrite).
const goldenRun = `stream 0: ingested=300 counts=[225 5 5 65 0 0 0 0] first=2200000 last=9968916567 lag=2200000
stream 1: ingested=300 counts=[219 5 12 64 0 0 0 0] first=2200000 last=9993666567 lag=2200000
stream 2: ingested=300 counts=[229 6 6 59 0 0 0 0] first=2200000 last=9973466567 lag=2200000
stream 3: ingested=300 counts=[229 5 20 46 0 0 0 0] first=2200000 last=10008566567 lag=2200000
elapsed=10006366567 mean=79666154 p50=55681 p95=703509448 p99=843627512 max=882533348 stages=[1200 1200 298 277 234]
`
