package timeline_test

// The acceptance test for the attribution engine runs the real system
// end to end (external test package: core imports timeline, so the
// in-package tests cannot). The GPU-1 saturation scenario from the
// consolidation benchmark — high TOR, Online mode, enough streams to
// flood the reference tier — must make /bottleneck name the reference
// tier as binding, and turning on object-level consolidation must
// dethrone it: the measured verdict shift that PR-9's benchmarks could
// only infer from throughput deltas.

import (
	"testing"

	"ffsva/internal/core"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
)

// refBoundConfig is the GPU-1 saturation scenario: TOR 0.4 sends ~40%
// of frames through the full cascade to the single reference GPU.
func refBoundConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = 8
	cfg.FramesPerStream = 90
	cfg.Mode = pipeline.Online
	cfg.TOR = 0.4
	return cfg
}

func runVerdict(t *testing.T, cfg core.Config) timeline.Verdict {
	t.Helper()
	tr := trace.New(trace.Options{})
	rec := timeline.New(timeline.Options{Tracer: tr})
	cfg.Trace = tr
	cfg.Timeline = rec
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return rec.Attribute(-1, 0, 0)
}

// TestReferenceTierBindsUnderSaturation asserts the attribution engine
// reproduces the known binding constraint of the saturation scenario,
// and that consolidation measurably shifts it off the reference tier.
// Deterministic: virtual clock, fixed seed.
func TestReferenceTierBindsUnderSaturation(t *testing.T) {
	v := runVerdict(t, refBoundConfig())
	if v.Binding != timeline.TierReference {
		t.Fatalf("without consolidation, binding = %q, want %q\n%s\ntiers: %+v",
			v.Binding, timeline.TierReference, v.Summary(), v.Tiers)
	}
	if top := v.Tiers[0]; top.Utilization < 0.5 {
		t.Errorf("reference tier bound with only %.2f utilization — weak evidence", top.Utilization)
	}

	cfg := refBoundConfig()
	cfg.Consolidate = true
	cv := runVerdict(t, cfg)
	if cv.Binding == timeline.TierReference {
		t.Fatalf("with consolidation, the reference tier still binds:\n%s\ntiers: %+v",
			cv.Summary(), cv.Tiers)
	}
	if cv.Binding == "none" {
		t.Fatalf("with consolidation, no tier binds at all — the window went idle: %+v", cv.Tiers)
	}
	t.Logf("without consolidation: %s", v.Summary())
	t.Logf("with consolidation:    %s", cv.Summary())
}

// TestVerdictDeterministic runs the scenario twice and requires
// identical verdicts — the flight recorder must add no nondeterminism.
func TestVerdictDeterministic(t *testing.T) {
	a := runVerdict(t, refBoundConfig())
	b := runVerdict(t, refBoundConfig())
	if a.Summary() != b.Summary() {
		t.Fatalf("two seeded runs disagree:\n%s\n%s", a.Summary(), b.Summary())
	}
	if a.Ticks != b.Ticks {
		t.Fatalf("tick counts differ: %d vs %d", a.Ticks, b.Ticks)
	}
}

// TestReportCarriesBottleneck checks the end-of-run report annotation.
func TestReportCarriesBottleneck(t *testing.T) {
	cfg := refBoundConfig()
	rec := timeline.New(timeline.Options{})
	cfg.Timeline = rec
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline.Bottleneck == "" {
		t.Fatal("Report.Bottleneck empty with a timeline recorder attached")
	}
	want := rec.Attribute(-1, 0, 0).Summary()
	if res.Pipeline.Bottleneck != want {
		t.Fatalf("Report.Bottleneck = %q, want the recorder's verdict %q", res.Pipeline.Bottleneck, want)
	}
}
