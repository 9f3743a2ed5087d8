package obs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ffsva/internal/core"
	"ffsva/internal/faults"
	"ffsva/internal/obs"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
)

// observedGolden is the sha256 of everything goldenClusterRun hands its
// observers; a mismatch means an observer now sees different bytes. Fix
// the change, don't re-record, unless the change declares it.
//
// It was last re-recorded, as a declared change, when the manager came
// to take one sample per tick and the control plane's timing became
// constants. The recipe that derives the new bytes from the old: run
// the old goldenClusterRun at the default timing (no CheckEvery,
// HeartbeatEvery or FailTimeout lines), keep only the first OnSnapshot
// line per (instance, at), and keep only the first /timeline tick per
// (instance, at), renumbering seq, total_ticks and retained. The
// /timeline events and the /snapshot document are byte-identical.
const observedGolden = "3c435804c3f6526c19f7fc90cbc2f3d9f59b10b19cbaf3f911f6a40802f1d50c"

// goldenClusterRun is a seeded four-instance online cluster run with
// consolidation, a tracer and a timeline recorder on, whose instance 2
// crashes mid-run. It returns every OnSnapshot JSON line (tagged with its
// instance), then the final /timeline window document and /snapshot body
// served by an obs server fed by those pushes.
func goldenClusterRun(t *testing.T) []byte {
	t.Helper()
	crash, err := faults.Parse("crash:inst=2,at=1500ms")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	rec := timeline.New(timeline.Options{Tracer: tr})
	s := obs.NewServer("127.0.0.1:0", tr)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetTimeline(rec)

	cfg := core.DefaultClusterConfig()
	cfg.Instances = 4
	cfg.Streams = 10
	cfg.FramesPerStream = 90
	cfg.ArrivalEvery = 150 * time.Millisecond
	cfg.TOR = 0.4
	cfg.Seed = 7
	cfg.Consolidate = true
	cfg.Trace = tr
	cfg.Timeline = rec
	cfg.Faults = []faults.Fault{crash}
	var out []byte
	cfg.OnSnapshot = func(instance int, sn pipeline.Snapshot) {
		out = fmt.Appendf(out, "%d %s\n", instance, sn.JSON())
		s.Push(instance, sn)
	}
	rep, err := core.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures() != 1 {
		t.Fatalf("%d failures; the crash must be detected", rep.Failures())
	}
	for _, path := range []string{"/timeline", "/snapshot"} {
		code, body := fetch(t, s.Addr(), path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %q", path, code, body)
		}
		out = append(out, body...)
	}
	return out
}

// TestObservedBytesGolden pins, by digest, every byte a cluster run's
// observers receive: the snapshot stream, the timeline window and the
// /snapshot document.
func TestObservedBytesGolden(t *testing.T) {
	got := goldenClusterRun(t)
	sum := sha256.Sum256(got)
	if h := hex.EncodeToString(sum[:]); h != observedGolden {
		t.Fatalf("observed bytes digest %s, want %s (%d bytes)", h, observedGolden, len(got))
	}
}
