package obs_test

// Scrape-under-load tests (external test package: these drive the whole
// system through core, which the in-package tests cannot import without
// a cycle). The obs endpoints' contract is that a scrape never blocks
// and never races the run feeding them — proven here by hammering
// /timeline, /bottleneck, /snapshot, and /metrics from several
// goroutines while a real run is pushing snapshots and ticks, under
// `make race`.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ffsva/internal/core"
	"ffsva/internal/obs"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
)

func fetch(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// liveConfig is a short online run that still spans many monitor ticks.
func liveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = 4
	cfg.FramesPerStream = 60
	cfg.Mode = pipeline.Online
	cfg.TOR = 0.4
	return cfg
}

// TestScrapeWhileRunning hammers every endpoint during an active run.
// The run feeds the server via OnSnapshot and the recorder via
// cfg.Timeline concurrently with the scrapes; the race detector owns
// the verdict, the assertions just prove the responses stay well-formed
// mid-run.
func TestScrapeWhileRunning(t *testing.T) {
	scrapeWhileRunning(t, func(tr *trace.Tracer, rec *timeline.Recorder, push func(int, pipeline.Snapshot)) error {
		cfg := liveConfig()
		cfg.Trace = tr
		cfg.Timeline = rec
		cfg.OnSnapshot = push
		_, err := core.Run(cfg)
		return err
	})
}

// TestScrapeWhileClusterRuns is TestScrapeWhileRunning over four
// instances: HTTP goroutines render pushed snapshots, whose parts later
// snapshots share, while the manager keeps publishing new ones.
func TestScrapeWhileClusterRuns(t *testing.T) {
	scrapeWhileRunning(t, func(tr *trace.Tracer, rec *timeline.Recorder, push func(int, pipeline.Snapshot)) error {
		cfg := core.DefaultClusterConfig()
		cfg.Instances = 4
		cfg.Streams = 8
		cfg.FramesPerStream = 60
		cfg.ArrivalEvery = 100 * time.Millisecond
		cfg.TOR = 0.4
		cfg.Trace = tr
		cfg.Timeline = rec
		cfg.OnSnapshot = push
		_, err := core.RunCluster(cfg)
		return err
	})
}

// scrapeWhileRunning starts an obs server with a tracer and a recorder,
// calls run with them and the server's Push in the background, and
// scrapes every endpoint from several goroutines until run returns.
func scrapeWhileRunning(t *testing.T, run func(*trace.Tracer, *timeline.Recorder, func(int, pipeline.Snapshot)) error) {
	tr := trace.New(trace.Options{})
	rec := timeline.New(timeline.Options{Tracer: tr})
	s := obs.NewServer("127.0.0.1:0", tr)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetTimeline(rec)

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		runErr = run(tr, rec, s.Push)
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/timeline", "/bottleneck", "/snapshot", "/metrics"} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					code, body := fetch(t, s.Addr(), path)
					if code != http.StatusOK {
						t.Errorf("%s mid-run: status %d body %q", path, code, body)
						return
					}
					switch path {
					case "/timeline":
						var doc timeline.WindowDoc
						if err := json.Unmarshal([]byte(body), &doc); err != nil {
							t.Errorf("/timeline mid-run not JSON: %v", err)
							return
						}
					case "/bottleneck":
						if !strings.Contains(body, `"binding"`) {
							t.Errorf("/bottleneck mid-run missing binding: %q", body)
							return
						}
					}
				}
			}(path)
		}
	}
	wg.Wait()
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}

	// After the run, the endpoints reflect the finished recording.
	_, body := fetch(t, s.Addr(), "/timeline")
	var doc timeline.WindowDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TotalTicks == 0 || len(doc.Ticks) == 0 {
		t.Fatalf("finished run recorded no ticks: %+v", doc)
	}
	_, body = fetch(t, s.Addr(), "/bottleneck")
	if !strings.Contains(body, `"summary"`) {
		t.Fatalf("/bottleneck missing summary: %q", body)
	}
}

// TestTimelineEndpointByteStable runs the same seeded workload twice
// into two recorders and requires the /timeline bodies to be
// byte-identical — the flight recorder inherits the virtual clock's
// determinism end to end.
func TestTimelineEndpointByteStable(t *testing.T) {
	run := func() string {
		tr := trace.New(trace.Options{})
		rec := timeline.New(timeline.Options{Tracer: tr})
		s := obs.NewServer("127.0.0.1:0", tr)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetTimeline(rec)
		cfg := liveConfig()
		cfg.Trace = tr
		cfg.Timeline = rec
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		code, body := fetch(t, s.Addr(), "/timeline")
		if code != http.StatusOK {
			t.Fatalf("/timeline status %d", code)
		}
		return body
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("/timeline differs across two identically seeded runs:\n--- a\n%.500s\n--- b\n%.500s", a, b)
	}
	if !strings.Contains(a, `"ticks"`) || !strings.Contains(a, `"events"`) {
		t.Fatalf("/timeline body missing fields: %.500s", a)
	}
}

// TestTimelineEndpointWithoutRecorder checks the 503 contract when no
// recorder is attached, and the 400 contract on a bad window query.
func TestTimelineEndpointWithoutRecorder(t *testing.T) {
	s := obs.NewServer("127.0.0.1:0", nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, path := range []string{"/timeline", "/bottleneck"} {
		if code, body := fetch(t, s.Addr(), path); code != http.StatusServiceUnavailable ||
			!strings.Contains(body, "timeline recorder not attached") {
			t.Fatalf("%s without recorder: %d %q", path, code, body)
		}
	}
	s.SetTimeline(timeline.New(timeline.Options{}))
	if code, _ := fetch(t, s.Addr(), "/timeline?from=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window query not rejected: %d", code)
	}
}
