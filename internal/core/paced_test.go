package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
)

// TestPacedRunMatchesUnpaced: one online stream of 30 frames (a second
// of capture) gives the same Report, records, accuracy and -metrics-json
// snapshots paced to the wall as unpaced, and the paced run takes at
// least its virtual span of wall time.
func TestPacedRunMatchesUnpaced(t *testing.T) {
	run := func(paced bool) (*Result, string, time.Duration) {
		cfg := DefaultConfig()
		cfg.Mode = pipeline.Online
		cfg.FramesPerStream = 30
		cfg.Paced = paced
		var snaps bytes.Buffer
		cfg.MetricsEvery = 100 * time.Millisecond
		cfg.OnSnapshot = func(_ int, sn pipeline.Snapshot) { fmt.Fprintln(&snaps, sn.JSON()) }
		if _, err := lab.CarCamera(cfg.TOR); err != nil { // train outside the timed run
			t.Fatal(err)
		}
		start := time.Now()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, snaps.String(), time.Since(start)
	}
	want, wantSnaps, _ := run(false)
	got, gotSnaps, wall := run(true)
	if want.HostLag != 0 {
		t.Errorf("unpaced run reports host lag %v", want.HostLag)
	}
	if wall < got.Pipeline.Elapsed {
		t.Errorf("paced run took %v of wall time for a %v run", wall, got.Pipeline.Elapsed)
	}
	if !reflect.DeepEqual(got.Pipeline, want.Pipeline) {
		t.Errorf("paced report differs:\n%v\nwant:\n%v", got.Pipeline, want.Pipeline)
	}
	if got.Accuracy != want.Accuracy {
		t.Errorf("paced accuracy %v, want %v", got.Accuracy, want.Accuracy)
	}
	if wantSnaps == "" || gotSnaps != wantSnaps {
		t.Errorf("paced snapshots differ:\n%s\nwant:\n%s", gotSnaps, wantSnaps)
	}
}

// TestPacedRunCancels: a paced run cancelled 100ms of wall time in stops
// ingest, drains, and returns its partial result within a second.
func TestPacedRunCancels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = pipeline.Online
	cfg.FramesPerStream = 300 // ten seconds of capture
	cfg.Paced = true
	if _, err := lab.CarCamera(cfg.TOR); err != nil { // train outside the timed run
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 100*time.Millisecond+time.Second {
		t.Errorf("cancelled paced run returned after %v", wall)
	}
	if !res.Cancelled || res.Pipeline.TotalFrames >= int64(cfg.FramesPerStream) {
		t.Fatalf("cancelled %v after %d of %d frames", res.Cancelled, res.Pipeline.TotalFrames, cfg.FramesPerStream)
	}
}
