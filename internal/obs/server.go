// Package obs is the live observability endpoint: a small net/http
// server exposing the pipeline's state while a run is in progress —
// Prometheus-text /metrics from the PR-1 registry export, /snapshot
// JSON, /healthz wired to the heartbeat liveness process, and /tracez
// rendering the tracer's retained per-frame spans.
//
// The server sits outside the simulation: it never reads pipeline state
// directly (that would race the virtual clock's cooperative scheduler);
// instead the run's monitor process pushes immutable Snapshot values in,
// and handlers serve the latest push. Health staleness is judged by
// comparing clock values inside one snapshot (heartbeat vs At), so the
// endpoint works identically whether or not the run is paced. The only
// wall clock involved is net/http's own Date response header.
//
// Security: an address with no host (":8080") binds loopback only; an
// operator must name an interface explicitly to expose the endpoint.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ffsva/internal/metrics"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
)

// Server is the observability HTTP server. Create with NewServer, feed
// with Push, and Start/Close around the run.
type Server struct {
	addr string
	tr   *trace.Tracer

	mu    sync.Mutex
	snaps map[int]pipeline.Snapshot
	rec   *timeline.Recorder

	ln  net.Listener
	srv *http.Server
	// wg joins the serve goroutine: Close must not return while it still
	// runs, or a fast teardown races the port release (the gostop
	// goroutine-leak class).
	wg sync.WaitGroup
	// limits bounds how long one connection may hold a serving
	// goroutine; tests shorten it before Start.
	limits connLimits
}

// connLimits are the per-connection deadlines: a client that sends its
// headers too slowly, reads a response too slowly or sits idle between
// requests is disconnected instead of pinning a goroutine and a socket
// for as long as it likes.
type connLimits struct {
	header, write, idle time.Duration
}

// NewServer prepares a server for addr; tr may be nil (tracez then
// reports tracing disabled). Nothing listens until Start. The write
// deadline leaves a slow link room for the largest response, a whole
// /timeline window.
func NewServer(addr string, tr *trace.Tracer) *Server {
	return &Server{addr: addr, tr: tr, snaps: map[int]pipeline.Snapshot{},
		limits: connLimits{header: 5 * time.Second, write: 30 * time.Second, idle: 60 * time.Second}}
}

// Push stores an instance's latest snapshot; handlers serve it until
// the next push. Safe to call from any goroutine or clock process.
func (s *Server) Push(instance int, sn pipeline.Snapshot) {
	s.mu.Lock()
	s.snaps[instance] = sn
	s.mu.Unlock()
}

// SetTimeline attaches the flight recorder behind /timeline and
// /bottleneck; until one is attached both endpoints answer 503.
func (s *Server) SetTimeline(rec *timeline.Recorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

func (s *Server) timeline() *timeline.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Start binds the listener and serves in the background. A host-less
// address like ":8080" binds 127.0.0.1 — exposing the endpoint beyond
// the local machine takes an explicit interface address.
func (s *Server) Start() error {
	addr := s.addr
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/bottleneck", s.handleBottleneck)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: s.limits.header,
		WriteTimeout: s.limits.write, IdleTimeout: s.limits.idle}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// The listener died under us; nothing to do but stop serving.
			_ = err
		}
	}()
	return nil
}

// Addr returns the bound address (host:port), or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server, waits for the serve goroutine to exit, and
// releases the port.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// snapshot returns the stored snapshots keyed by instance, plus the
// sorted instance ids.
func (s *Server) snapshot() (map[int]pipeline.Snapshot, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[int]pipeline.Snapshot, len(s.snaps))
	ids := make([]int, 0, len(s.snaps))
	for id, sn := range s.snaps {
		m[id] = sn
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return m, ids
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>ffsva</title></head><body>
<h1>ffsva observability</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/snapshot">/snapshot</a> — full pipeline snapshot JSON</li>
<li><a href="/healthz">/healthz</a> — heartbeat-backed liveness</li>
<li><a href="/tracez">/tracez</a> — recent sampled frame traces</li>
<li><a href="/timeline">/timeline</a> — flight-recorder window (instance/from/to query params)</li>
<li><a href="/bottleneck">/bottleneck</a> — ranked binding-constraint verdict with evidence</li>
</ul></body></html>
`)
}

// promHelp carries the # HELP prose for the families we have prose for;
// families without an entry emit # TYPE only.
var promHelp = map[string]string{
	"ffsva_frames_ingested_total": "Frames ingested across all streams.",
	"ffsva_frames_disposed_total": "Frames leaving the cascade, by disposition label.",
	"ffsva_frames_orphaned_total": "Frames that reached the reference stage with no owning stream.",
	"ffsva_ref_canvases_total":    "Consolidated canvases submitted to the reference tier.",
	"ffsva_faults_injected_total": "Faults injected by the fault plan.",
	"ffsva_retries_total":         "Frame retries after recoverable decode faults.",
	"ffsva_shed_frames_total":     "Frames shed by the overload bypass.",
	"ffsva_tyolo_fps":             "T-YOLO decided-frame throughput in frames per second.",
	"ffsva_in_flight":             "Frames ingested but not yet decided.",
	"ffsva_live_streams":          "Streams still producing frames.",
	"ffsva_worst_backlog":         "Deepest per-stream backlog: capture buffer plus pending spill, in frames.",
	"ffsva_worst_lag_seconds":     "Largest current ingest lateness behind the capture schedule among live streams, in seconds.",
	"ffsva_overloaded":            "1 while any stream's SNM or T-YOLO queue is at its depth threshold.",
	"ffsva_up":                    "0 once the instance has crashed.",
}

// promSeries rewrites a registry sample into Prometheus exposition
// syntax: the family name ("ffsva_"-prefixed, "_total"-suffixed for
// counters), the full series with instance and label keys, and the
// exposition type. The registry flattens labeled counters to
// "name{labelvalue}"; Prometheus needs a key, so the value is re-keyed
// under "label".
func promSeries(sample metrics.Sample, instance int) (fam, series, kind string) {
	name := sample.Name
	label := ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		label = strings.TrimSuffix(name[i+1:], "}")
		name = name[:i]
	}
	kind = "gauge"
	if sample.Kind == "counter" {
		kind = "counter"
		if !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
	}
	fam = "ffsva_" + name
	if label != "" {
		series = fmt.Sprintf(`%s{instance="%d",label=%q}`, fam, instance, label)
	} else {
		series = fmt.Sprintf(`%s{instance="%d"}`, fam, instance)
	}
	return fam, series, kind
}

// handleMetrics writes the Prometheus text exposition grouped by metric
// family: one # HELP (where prose exists) and # TYPE line per family,
// followed by every instance's series. Family order is first-seen over
// sorted instance ids and the registry's registration order, so
// identical pushed state scrapes byte-identically.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snaps, ids := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	type family struct {
		kind  string
		lines []string
	}
	var order []string
	fams := map[string]*family{}
	add := func(fam, kind, line string) {
		f := fams[fam]
		if f == nil {
			f = &family{kind: kind}
			fams[fam] = f
			order = append(order, fam)
		}
		f.lines = append(f.lines, line)
	}
	for _, id := range ids {
		sn := snaps[id]
		for _, sample := range sn.Metrics {
			fam, series, kind := promSeries(sample, id)
			add(fam, kind, fmt.Sprintf("%s %g", series, sample.Value))
		}
		inst := fmt.Sprintf(`{instance="%d"}`, id)
		overloaded, up := 0, 1
		if sn.Overloaded {
			overloaded = 1
		}
		if sn.Crashed {
			up = 0
		}
		add("ffsva_in_flight", "gauge", fmt.Sprintf("ffsva_in_flight%s %d", inst, sn.InFlight))
		add("ffsva_live_streams", "gauge", fmt.Sprintf("ffsva_live_streams%s %d", inst, sn.LiveStreams))
		add("ffsva_worst_backlog", "gauge", fmt.Sprintf("ffsva_worst_backlog%s %d", inst, sn.WorstBacklog))
		add("ffsva_worst_lag_seconds", "gauge", fmt.Sprintf("ffsva_worst_lag_seconds%s %g", inst, sn.WorstLag.Seconds()))
		add("ffsva_overloaded", "gauge", fmt.Sprintf("ffsva_overloaded%s %d", inst, overloaded))
		add("ffsva_up", "gauge", fmt.Sprintf("ffsva_up%s %d", inst, up))
	}
	for _, fam := range order {
		f := fams[fam]
		if help, ok := promHelp[fam]; ok {
			fmt.Fprintf(w, "# HELP %s %s\n", fam, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", fam, f.kind)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snaps, ids := s.snapshot()
	out := make(map[string]pipeline.Snapshot, len(snaps))
	for _, id := range ids {
		out[fmt.Sprintf("%d", id)] = snaps[id]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleHealthz reports liveness from the pushed snapshots: 503 until
// the first push, 503 when every instance has crashed, and 503 when a
// running instance's heartbeat has gone stale (older than three
// intervals at snapshot time — the same staleness rule the cluster
// manager's failure detector uses). Both clock values come from inside
// one snapshot, so the check is wall-clock-free.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snaps, ids := s.snapshot()
	if len(ids) == 0 {
		http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
		return
	}
	alive := 0
	var stale []string
	for _, id := range ids {
		sn := snaps[id]
		if sn.Crashed {
			continue
		}
		alive++
		if sn.HeartbeatEvery > 0 && !sn.Finished && sn.Heartbeat > 0 &&
			sn.At-sn.Heartbeat > 3*sn.HeartbeatEvery {
			stale = append(stale, fmt.Sprintf("instance %d: heartbeat %v behind",
				id, (sn.At-sn.Heartbeat).Round(time.Millisecond)))
		}
	}
	if alive == 0 {
		http.Error(w, "all instances crashed", http.StatusServiceUnavailable)
		return
	}
	if len(stale) > 0 {
		http.Error(w, strings.Join(stale, "\n"), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok: %d/%d instances alive\n", alive, len(ids))
}

func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tr.WriteTracez(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseWindow reads the shared /timeline and /bottleneck query
// parameters: instance (default -1 = all), from and to (Go duration
// strings, e.g. "1.5s"; to defaults to the newest tick). Any other
// negative instance, a negative time, and a window whose from lies past
// an explicit to are errors, not an "all" or an empty window.
func parseWindow(r *http.Request) (instance int, from, to time.Duration, err error) {
	instance = -1
	q := r.URL.Query()
	if v := q.Get("instance"); v != "" {
		instance, err = strconv.Atoi(v)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("instance: %w", err)
		}
		if instance < -1 {
			return 0, 0, 0, fmt.Errorf("instance: %d is neither an instance nor -1 (all)", instance)
		}
	}
	if from, err = parseTime(q.Get("from")); err != nil {
		return 0, 0, 0, fmt.Errorf("from: %w", err)
	}
	if to, err = parseTime(q.Get("to")); err != nil {
		return 0, 0, 0, fmt.Errorf("to: %w", err)
	}
	if to > 0 && from > to {
		return 0, 0, 0, fmt.Errorf("from %v is after to %v", from, to)
	}
	return instance, from, to, nil
}

// parseTime reads one window bound: a non-negative Go duration, zero
// when absent.
func parseTime(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("%v is negative", d)
	}
	return d, nil
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	rec := s.timeline()
	if rec == nil {
		http.Error(w, "timeline recorder not attached", http.StatusServiceUnavailable)
		return
	}
	instance, from, to, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(rec.Window(instance, from, to)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// bottleneckDoc is the /bottleneck response: the ranked verdict plus
// its one-line rendering.
type bottleneckDoc struct {
	timeline.Verdict
	Summary string `json:"summary"`
}

func (s *Server) handleBottleneck(w http.ResponseWriter, r *http.Request) {
	rec := s.timeline()
	if rec == nil {
		http.Error(w, "timeline recorder not attached", http.StatusServiceUnavailable)
		return
	}
	instance, from, to, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v := rec.Attribute(instance, from, to)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(bottleneckDoc{Verdict: v, Summary: v.Summary()}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
