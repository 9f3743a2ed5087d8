package pipeline_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// TestSnapshotConservation is the observability acceptance test: a
// monitored online run whose every sample satisfies the frame-ledger
// invariants, and whose final sample shows per-stage drop counts summing
// exactly to the frames ingested.
func TestSnapshotConservation(t *testing.T) {
	clk := vclock.NewVirtual()
	const streams, frames = 3, 300
	sys := build(t, clk, streams, 0.2, frames, func(c *pipeline.Config) {
		c.Mode = pipeline.Online
	})
	var samples []pipeline.Snapshot
	sys.Monitor(500*time.Millisecond, func(sn pipeline.Snapshot) {
		samples = append(samples, sn)
	})
	rep := sys.Run()
	checkConservation(t, rep)

	if len(samples) < 2 {
		t.Fatalf("monitor took %d samples, want several", len(samples))
	}
	last := samples[len(samples)-1]
	if !last.Finished {
		t.Fatal("final sample not marked finished")
	}
	for i, sn := range samples {
		// Ledger invariant at every instant: decided + in-flight = ingested.
		var disposed int64
		for _, c := range sn.Drops {
			disposed += c
		}
		if disposed != sn.Decided {
			t.Fatalf("sample %d: drops sum %d != decided %d", i, disposed, sn.Decided)
		}
		if sn.Decided+sn.InFlight != sn.Ingested {
			t.Fatalf("sample %d: decided %d + in-flight %d != ingested %d",
				i, sn.Decided, sn.InFlight, sn.Ingested)
		}
		for _, ss := range sn.Streams {
			if ss.Decided > ss.Ingested {
				t.Fatalf("sample %d stream %d: decided %d > ingested %d", i, ss.ID, ss.Decided, ss.Ingested)
			}
		}
		for _, d := range sn.Devices {
			if d.BusyFraction < 0 || d.BusyFraction > 1.000001 {
				t.Fatalf("sample %d device %s: busy fraction %v", i, d.Name, d.BusyFraction)
			}
		}
		if sn.Orphaned != 0 {
			t.Fatalf("sample %d: %d orphaned frames", i, sn.Orphaned)
		}
	}
	// Final ledger: every ingested frame has exactly one disposition, and
	// every frame was ingested.
	var disposed int64
	for _, c := range last.Drops {
		disposed += c
	}
	if want := int64(streams * frames); last.Ingested != want || disposed != want {
		t.Fatalf("final ledger: ingested %d, disposed %d, want %d", last.Ingested, disposed, want)
	}
	if last.InFlight != 0 || last.LiveStreams != 0 {
		t.Fatalf("final sample: in-flight %d, live %d, want 0/0", last.InFlight, last.LiveStreams)
	}
	// Per-stream final ledger.
	for _, ss := range last.Streams {
		var sum int64
		for _, c := range ss.Drops {
			sum += c
		}
		if sum != ss.Ingested || ss.Ingested != int64(ss.Frames) {
			t.Fatalf("stream %d final ledger: drops %v sum %d, ingested %d, frames %d",
				ss.ID, ss.Drops, sum, ss.Ingested, ss.Frames)
		}
	}
	// The registry export travels with the snapshot.
	found := false
	for _, m := range last.Metrics {
		if m.Name == "frames_ingested_total" {
			found = true
			if int64(m.Value) != int64(streams*frames) {
				t.Fatalf("frames_ingested_total = %v", m.Value)
			}
		}
	}
	if !found {
		t.Fatal("registry export missing frames_ingested_total")
	}
}

// TestSnapshotJSON verifies the -metrics JSON form is valid and carries
// the control signals.
func TestSnapshotJSON(t *testing.T) {
	clk := vclock.NewVirtual()
	sys := build(t, clk, 1, 0.2, 150, func(c *pipeline.Config) { c.Mode = pipeline.Online })
	var last pipeline.Snapshot
	sys.Monitor(time.Second, func(sn pipeline.Snapshot) { last = sn })
	sys.Run()
	var m map[string]any
	if err := json.Unmarshal([]byte(last.JSON()), &m); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	for _, key := range []string{"tyolo_fps", "worst_lag", "drops", "streams", "devices", "finished"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("snapshot JSON missing %q", key)
		}
	}
	if len(last.String()) == 0 {
		t.Fatal("empty text rendering")
	}
}

// TestWorstLagExcludesFinishedStreams is the regression test for the
// overload-signal bug: a stream that has finished ingesting can no longer
// be late, so its last observed lag must not keep the instance looking
// overloaded (the cluster manager would re-forward streams off an idle
// instance forever).
func TestWorstLagExcludesFinishedStreams(t *testing.T) {
	clk := vclock.NewVirtual()
	costs := device.Calibrated()
	// A slow reference model guarantees real lag while ingest runs.
	c := costs[device.ModelRef]
	c.PerFrame = 150 * time.Millisecond
	costs[device.ModelRef] = c
	sys := build(t, clk, 1, 1.0, 300, func(cfg *pipeline.Config) {
		cfg.Mode = pipeline.Online
		cfg.Costs = costs
		cfg.IngestBuffer = 60
	})
	sawLag := false
	var final pipeline.Snapshot
	sys.Monitor(time.Second, func(sn pipeline.Snapshot) {
		if sn.WorstLag > 0 {
			sawLag = true
		}
		final = sn
	})
	rep := sys.Run()
	checkConservation(t, rep)
	if !sawLag {
		t.Fatal("overload configuration never showed ingest lag; test is vacuous")
	}
	if got := sys.Snapshot().WorstLag; got != 0 {
		t.Fatalf("WorstLag = %v after all ingest finished, want 0", got)
	}
	if final.WorstLag != 0 || final.LiveStreams != 0 {
		t.Fatalf("final sample: lag %v live %d, want 0/0", final.WorstLag, final.LiveStreams)
	}
}

// TestMonitorPaced proves the monitor runs unchanged on a paced clock:
// the same samples as the unpaced run, ending with a finished one.
func TestMonitorPaced(t *testing.T) {
	run := func(clk *vclock.VirtualClock) []string {
		sys := build(t, clk, 1, 0.3, 60, nil)
		var samples []string
		sys.Monitor(100*time.Millisecond, func(sn pipeline.Snapshot) {
			samples = append(samples, sn.JSON())
		})
		checkConservation(t, sys.Run())
		if len(samples) == 0 || !strings.Contains(samples[len(samples)-1], `"finished":true`) {
			t.Fatalf("last of %d samples not finished", len(samples))
		}
		return samples
	}
	want := run(vclock.NewVirtual())
	got := run(vclock.NewPaced())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("paced samples differ:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
