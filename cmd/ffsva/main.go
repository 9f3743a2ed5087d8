// Command ffsva runs the FFS-VA filtering system on synthetic
// surveillance streams and prints the performance report and accuracy
// analysis.
//
// Usage:
//
//	ffsva [-workload car|person] [-tor 0.1] [-streams 4] [-frames 1000]
//	      [-mode offline|online] [-batch-policy dynamic|feedback|static]
//	      [-batch 10] [-filter-degree 0.5] [-objects 1] [-tolerance 0]
//	      [-consolidate]
//	      [-real] [-metrics 1s] [-metrics-json]
//	      [-instances 2] [-arrival-every 2s]
//	      [-inject spec]... [-shed-after 500ms]
//	      [-trace out.json] [-listen :8080] [-timeline]
//	      [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -instances greater than one runs the multi-instance layer (§4.3)
// instead of a single pipeline: streams arrive -arrival-every apart, the
// control plane places each on the least-loaded instance, re-forwards
// streams off overloaded instances, and recovers the streams of an
// instance it declares dead (an arrival with no live instance left is
// rejected and charged to the drop-admission ledger).
//
// -consolidate switches the reference tier to object-level
// consolidation: T-YOLO's candidate boxes are cropped with padding and
// shelf-packed across streams into fixed canvases, each canvas costing
// one reference inference instead of one per frame (DESIGN.md §15).
//
// -inject (repeatable) adds a fault to the injection plan:
//
//	-inject crash:inst=1,at=8s
//	-inject slow:dev=gpu0,from=2s,until=10s,x=2
//	-inject stall:dev=gpu1,from=3s,until=4s
//	-inject decode:stream=0,seq=100-200,attempts=3
//	-inject corrupt:stream=0,seq=100-200
//
// In cluster mode a crashed instance is detected by its stale heartbeat
// and every one of its streams is re-forwarded to a surviving instance.
// -shed-after enables the online load-shedding bypass: frames captured
// more than that much behind schedule are dropped at the ingest buffer
// instead of stalling capture.
//
// Interrupting the process (Ctrl-C) cancels the run cleanly: ingest
// stops at frame boundaries, in-flight frames drain, and the partial
// report is printed with a "cancelled" marker.
//
// -metrics attaches the pipeline's periodic observability monitor: every
// interval a live snapshot (queue depths, feedback blocked-puts, drops by
// disposition, SNM batch distribution, device busy fractions, ingest lag,
// T-YOLO rate) is dumped to stderr, as text or as one JSON line with
// -metrics-json. A cluster run's snapshots come at the manager's fixed
// 1 s tick whatever the interval, one per instance: a text snapshot
// starts "instance N: " and a JSON line carries "instance":N.
//
// -trace records a span tree for every frame's journey through the
// cascade (decode, each queue wait, SDD, SNM batch assembly + inference,
// shared T-YOLO, reference model) and writes Chrome trace-event JSON —
// open the file at https://ui.perfetto.dev to see one track per stage
// and device, with feedback throttling, fault injections, and cluster
// events as instants. The report also gains an aggregate
// wait-vs-service latency decomposition table.
//
// -listen serves the live observability endpoint while the run is in
// progress: /metrics (Prometheus text), /snapshot (JSON), /healthz
// (heartbeat liveness), /tracez (recent sampled traces), and — with
// -timeline — /timeline (flight-recorder window queries) and
// /bottleneck (the ranked binding-constraint verdict). A host-less
// address like ":8080" binds 127.0.0.1 only. An unpaced run is usually
// over in seconds; add -real to watch it live.
//
// -timeline attaches the flight recorder: the run is sampled into a
// bounded ring of deterministic ticks (queue depths, device busy time,
// per-stage span loads), and the report gains the bottleneck
// attribution verdict ("which tier binds"). With -listen, /timeline
// serves any window of those ticks and the run's events.
//
// -cpuprofile and -memprofile write pprof profiles of the run itself —
// training and the pipeline, not flag handling or report printing: the
// CPU profile covers it, the heap profile (allocations since process
// start) is taken as it ends. Read them with `go tool pprof`.
//
// The run executes under the deterministic virtual clock, reproducing
// the paper's two-GPU server timings on any machine. -real plays the same
// run paced to the wall clock: the output is identical, plus one
// "host lag:" line saying how far the host fell behind the schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"ffsva"
)

// injectFlag collects repeatable -inject fault specs.
type injectFlag struct {
	plan *[]ffsva.Fault
}

func (f injectFlag) String() string { return "" }

func (f injectFlag) Set(spec string) error {
	ft, err := ffsva.ParseFault(spec)
	if err != nil {
		return err
	}
	*f.plan = append(*f.plan, ft)
	return nil
}

func main() {
	cfg := ffsva.DefaultConfig()

	workload := flag.String("workload", "car", "workload: car (Jackson-like) or person (Coral-like)")
	flag.Float64Var(&cfg.TOR, "tor", 0.10, "target-object ratio in [0,1]")
	flag.IntVar(&cfg.Streams, "streams", 1, "number of concurrent streams")
	flag.IntVar(&cfg.FramesPerStream, "frames", 1000, "frames per stream")
	mode := flag.String("mode", "offline", "offline or online")
	policy := flag.String("batch-policy", "dynamic", "dynamic, feedback, or static")
	flag.IntVar(&cfg.BatchSize, "batch", 10, "SNM batch size")
	flag.Float64Var(&cfg.FilterDegree, "filter-degree", 0.5, "SNM FilterDegree in [0,1]")
	flag.IntVar(&cfg.NumberOfObjects, "objects", 1, "minimum target objects per event (NumberofObjects)")
	flag.IntVar(&cfg.Tolerance, "tolerance", 0, "relaxation of the object-count threshold")
	flag.BoolVar(&cfg.Consolidate, "consolidate", false, "object-level consolidation: pack T-YOLO candidate crops from many streams into batched reference inferences")
	real := flag.Bool("real", false, "pace the virtual clock to the wall clock (same output, played in real time)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "stream dynamics seed")
	metricsEvery := flag.Duration("metrics", 0, "dump a pipeline snapshot to stderr every interval (0 disables)")
	metricsJSON := flag.Bool("metrics-json", false, "emit -metrics snapshots as JSON lines")
	instances := flag.Int("instances", 1, "FFS-VA instances; >1 runs the multi-instance cluster")
	arrivalEvery := flag.Duration("arrival-every", 2*time.Second, "stream arrival spacing in cluster mode")
	flag.Var(injectFlag{&cfg.Faults}, "inject", "fault-injection spec (repeatable), e.g. crash:inst=1,at=8s")
	flag.DurationVar(&cfg.ShedAfter, "shed-after", 0, "online load-shedding lateness threshold (0 disables)")
	tracePath := flag.String("trace", "", "write Perfetto-loadable trace-event JSON to this file")
	listen := flag.String("listen", "", `serve the live observability endpoint (":8080" binds localhost)`)
	timelineOn := flag.Bool("timeline", false, "record the flight-recorder timeline and print the bottleneck verdict")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	flag.Parse()

	switch *workload {
	case "car":
		cfg.Workload = ffsva.WorkloadCar
	case "person":
		cfg.Workload = ffsva.WorkloadPerson
	default:
		fmt.Fprintf(os.Stderr, "ffsva: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	switch *mode {
	case "offline":
		cfg.Mode = ffsva.Offline
	case "online":
		cfg.Mode = ffsva.Online
	default:
		fmt.Fprintf(os.Stderr, "ffsva: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	switch *policy {
	case "dynamic":
		cfg.BatchPolicy = ffsva.BatchDynamic
	case "feedback":
		cfg.BatchPolicy = ffsva.BatchFeedback
	case "static":
		cfg.BatchPolicy = ffsva.BatchStatic
	default:
		fmt.Fprintf(os.Stderr, "ffsva: unknown batch policy %q\n", *policy)
		os.Exit(2)
	}
	cfg.Paced = *real
	if *metricsEvery > 0 {
		cfg.MetricsEvery = *metricsEvery
		cfg.OnSnapshot = snapshotPrinter(os.Stderr, *metricsJSON, *instances > 1)
	}

	var tracer *ffsva.Tracer
	if *tracePath != "" || *listen != "" {
		tracer = ffsva.NewTracer(ffsva.TraceOptions{})
		cfg.Trace = tracer
	}
	var rec *ffsva.Timeline
	if *timelineOn {
		rec = ffsva.NewTimeline(ffsva.TimelineOptions{Tracer: tracer})
		cfg.Timeline = rec
	}
	if *listen != "" {
		server := ffsva.NewObsServer(*listen, tracer)
		if rec != nil {
			server.SetTimeline(rec)
		}
		if cfg.MetricsEvery == 0 {
			cfg.MetricsEvery = time.Second // the endpoint needs a snapshot cadence
		}
		printSnap := cfg.OnSnapshot // -metrics's printer, if any
		cfg.OnSnapshot = func(instance int, sn ffsva.Snapshot) {
			if printSnap != nil {
				printSnap(instance, sn)
			}
			server.Push(instance, sn)
		}
		if err := server.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "ffsva: %v\n", err)
			os.Exit(1)
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "ffsva: observability endpoint at http://%s/\n", server.Addr())
	}

	// A cluster run validates its own config below: a fault may name
	// any of its instances.
	if *instances <= 1 {
		if err := cfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "ffsva: %v\n", err)
			os.Exit(2)
		}
	}

	// Ctrl-C cancels the run cleanly through the context-aware API.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *instances > 1 {
		ccfg := ffsva.ClusterConfig{Config: cfg, Instances: *instances, ArrivalEvery: *arrivalEvery}
		ccfg.Mode = ffsva.Online
		if err := ccfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "ffsva: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("training stream-specialized models (cached after first run)...\n")
		stopProfiles := startProfiles(*cpuProfile, *memProfile)
		rep, err := ffsva.RunClusterContext(ctx, ccfg)
		stopProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsva: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		if rep.Cancelled {
			fmt.Println("run cancelled — partial report:")
		}
		fmt.Printf("cluster: %d instances, %d admissions, %d re-forwards, realtime=%v\n",
			len(rep.Instances), rep.Admissions(), rep.Reforwards(), rep.Realtime)
		if rep.Failures() > 0 {
			fmt.Printf("  failures: %d instance(s) lost, %d stream(s) recovered\n",
				rep.Failures(), rep.Recoveries())
		}
		for _, rj := range rep.Rejections {
			fmt.Printf("  rejected: stream %d (no live instance) — %d frames charged to drop-admission\n",
				rj.StreamID, rj.Frames)
		}
		for i, ir := range rep.Instances {
			fmt.Printf("  instance %d: %v\n", i, ir)
		}
		fmt.Println("  frames decided per stream:")
		for id := 0; id < cfg.Streams; id++ {
			fmt.Printf("    stream %d: %d\n", id, rep.StreamFrames[id])
		}
		if rec != nil {
			fmt.Printf("  %s\n", rec.Attribute(-1, 0, 0).Summary())
		}
		if *real {
			fmt.Printf("host lag: %v\n", rep.HostLag)
		}
		exportTrace(tracer, *tracePath)
		return
	}

	fmt.Printf("training stream-specialized models (cached after first run)...\n")
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	res, err := ffsva.RunContext(ctx, cfg)
	stopProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffsva: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	if res.Cancelled {
		fmt.Println("run cancelled — partial report:")
	}
	fmt.Println(res.Pipeline)
	fmt.Println()
	fmt.Printf("accuracy: %v\n", res.Accuracy)
	fmt.Printf("  frame error rate: %.2f%%  scene loss: %.2f%% (paper: <2%%)\n",
		100*res.Accuracy.ErrorRate(), 100*res.Accuracy.SceneLossRate())
	for _, sr := range res.Pipeline.Streams {
		fmt.Printf("  stream %d: drops sdd/snm/t-yolo = %d/%d/%d, detected = %d, realized TOR %.3f\n",
			sr.ID, sr.Counts[0], sr.Counts[1], sr.Counts[2], sr.Counts[3], sr.RealizedTOR)
	}
	if *real {
		fmt.Printf("host lag: %v\n", res.HostLag)
	}
	exportTrace(tracer, *tracePath)
}

// snapshotPrinter returns the OnSnapshot that writes each snapshot to w,
// as text or as one JSON line. A cluster run's snapshots name their
// instance; a single-instance run's are printed as they are.
func snapshotPrinter(w io.Writer, asJSON, cluster bool) func(int, ffsva.Snapshot) {
	return func(instance int, sn ffsva.Snapshot) {
		switch {
		case asJSON && cluster:
			// sn.JSON() is one object; the instance becomes its first field.
			fmt.Fprintf(w, "{\"instance\":%d,%s\n", instance, sn.JSON()[1:])
		case asJSON:
			fmt.Fprintln(w, sn.JSON())
		case cluster:
			fmt.Fprintf(w, "instance %d: %v\n", instance, sn)
		default:
			fmt.Fprintln(w, sn)
		}
	}
}

// startProfiles begins the CPU profile and returns the function that
// ends it and writes the heap profile; an empty path skips that profile.
// A profile that cannot be written ends the process: the run was asked
// for in order to be profiled.
func startProfiles(cpuPath, memPath string) (stop func()) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ffsva: profile: %v\n", err)
		os.Exit(1)
	}
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fail(err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fail(err)
			}
		}
		if memPath == "" {
			return
		}
		mem, err := os.Create(memPath)
		if err != nil {
			fail(err)
		}
		if err := pprof.WriteHeapProfile(mem); err != nil {
			fail(err)
		}
		if err := mem.Close(); err != nil {
			fail(err)
		}
	}
}

// exportTrace writes the recorded trace to tracePath; an export
// failure is reported but does not fail the run (the report already
// printed).
func exportTrace(tracer *ffsva.Tracer, tracePath string) {
	if tracer == nil || tracePath == "" {
		return
	}
	f, err := os.Create(tracePath)
	if err == nil {
		err = tracer.WriteTraceEvents(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffsva: trace export: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "ffsva: wrote %s\n", tracePath)
}
