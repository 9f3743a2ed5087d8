// Package core is FFS-VA's top-level API: it assembles a complete system
// from a workload description — training the stream-specialized models,
// minting per-stream filters around the shared T-YOLO detector, running
// the pipelined engine — and evaluates accuracy the way the paper does
// (§3.3, §5.3): frame-level false-negative rate, run-length taxonomy of
// error frames (Table 2), and scene-level loss (the <2% headline metric).
package core

import (
	"context"
	"fmt"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/faults"
	"ffsva/internal/frame"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// WorkloadKind selects the evaluation workload family (Table 1).
type WorkloadKind int

// Workload kinds.
const (
	// WorkloadCar mirrors the Jackson video: cars at a crossroad.
	WorkloadCar WorkloadKind = iota
	// WorkloadPerson mirrors the Coral video: people (often crowds).
	WorkloadPerson
)

// Config describes a complete FFS-VA run.
type Config struct {
	Workload WorkloadKind
	// TOR is the target-object ratio of the generated streams.
	TOR float64
	// Streams is the number of concurrent streams.
	Streams int
	// FramesPerStream bounds each stream.
	FramesPerStream int

	Mode        pipeline.Mode
	BatchPolicy pipeline.BatchPolicy
	BatchSize   int

	// FilterDegree is the SNM aggressiveness (paper Eq. 2), in [0, 1].
	FilterDegree float64
	// NumberOfObjects is the user's event-intensity threshold.
	NumberOfObjects int
	// Tolerance relaxes T-YOLO's count threshold (§5.3.3).
	Tolerance int
	// Consolidate enables object-level consolidation of the reference
	// tier (Rivas et al.): T-YOLO's candidate boxes are cropped and
	// shelf-packed across streams into fixed canvases, and each canvas
	// costs one reference inference instead of one per frame.
	Consolidate bool

	// Paced plays the run in real time: the virtual clock holds each
	// advance until the wall clock has caught up with it, so the run can
	// be watched live (on the observability endpoint, say). Its outputs
	// are the unpaced run's, byte for byte; Result.HostLag reports how
	// far the host fell behind.
	Paced bool
	// Seed namespaces the streams' object dynamics.
	Seed int64

	// MetricsEvery, when positive, attaches the pipeline's periodic
	// observability monitor to a single-instance run: every interval a
	// Snapshot is handed to OnSnapshot (and to Timeline). A cluster run
	// ignores it: its manager hands OnSnapshot one snapshot per instance
	// at every 1 s tick.
	MetricsEvery time.Duration
	// OnSnapshot, when non-nil, receives each snapshot tagged with its
	// instance index (always 0 in a single-instance run). It is core's
	// one observer path for both run kinds: core prints nothing itself.
	// It runs on a clock process, so it must be fast and must not block.
	OnSnapshot func(instance int, sn pipeline.Snapshot)

	// Timeline, when non-nil, is the flight recorder fed by the run: the
	// monitor process pushes a tick per interval (MetricsEvery, or a
	// 250ms default when only the recorder asks for sampling), the
	// tracer — when also set — is bound for per-stage loads and event
	// intake, and after the run the recorder's whole-window verdict
	// annotates Report.Bottleneck. The caller owns the recorder.
	Timeline *timeline.Recorder

	// Trace, when non-nil, records a span tree for every frame's journey
	// through the cascade (decode, queue waits, SDD, SNM batch assembly
	// and inference, shared T-YOLO, reference model). The caller owns
	// the tracer and exports it after the run (Perfetto JSON or the
	// /tracez endpoint). Nil — the default — disables tracing: the
	// hot path then pays one pointer check per stage.
	Trace *trace.Tracer

	// Faults is the fault-injection plan (see faults.Parse for the spec
	// syntax). In a single-instance run every fault applies to instance 0;
	// in a cluster run stream faults travel with their streams and
	// device/crash faults bind to Fault.Instance.
	Faults []faults.Fault
	// ShedAfter enables the online load-shedding bypass: a frame whose
	// capture is later than its schedule by more than this is dropped at
	// the ingest buffer (disposition DropShed) instead of stalling
	// capture. Zero disables shedding.
	ShedAfter time.Duration
}

// DefaultConfig returns a ready-to-run configuration.
func DefaultConfig() Config {
	return Config{
		Workload:        WorkloadCar,
		TOR:             0.10,
		Streams:         1,
		FramesPerStream: 1000,
		Mode:            pipeline.Offline,
		BatchPolicy:     pipeline.BatchDynamic,
		BatchSize:       10,
		FilterDegree:    0.5,
		NumberOfObjects: 1,
		Seed:            1,
	}
}

// Result bundles the run's performance report and accuracy analysis.
type Result struct {
	Pipeline *pipeline.Report
	Accuracy Accuracy
	// Cancelled marks a run stopped early by context cancellation. The
	// result is still internally consistent: ingest stopped at a frame
	// boundary and every ingested frame drained to a final disposition,
	// so the report and accuracy cover exactly the frames processed.
	Cancelled bool
	// HostLag is how far the host fell behind a Paced run's schedule
	// (vclock.VirtualClock.HostLag); zero for an unpaced run.
	HostLag time.Duration
}

// Run trains (or reuses cached) models for the workload's camera, builds
// the system, runs it to completion, and analyzes accuracy. It is
// RunContext with a background context.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// ctxPollInterval is how often the cancellation watcher samples the
// context. It is virtual time, so polling is free; under pacing it also
// bounds the cancellation latency in wall time.
const ctxPollInterval = 10 * time.Millisecond

// timelineDefaultEvery is the flight-recorder sampling interval when a
// Timeline is set but no MetricsEvery was chosen: fine enough for
// windowed attribution, coarse enough that sampling stays a small share
// of the run (bench's timeline.observe_us_at_1000 prices one sample).
const timelineDefaultEvery = 250 * time.Millisecond

// RunContext is Run with cancellation: when ctx is cancelled mid-run,
// every stream's ingest halts at its next frame boundary, frames
// already in flight drain through the cascade, and the partial Result
// comes back with Cancelled set (and a nil error — the partial result
// is valid). Cancellation before the pipeline starts returns ctx.Err()
// instead.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cam, err := Camera(cfg.Workload, cfg.TOR)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	clk := cfg.clock()
	pcfg := pipeline.DefaultConfig(clk)
	pcfg.Mode = cfg.Mode
	pcfg.BatchPolicy = cfg.BatchPolicy
	if cfg.BatchSize > 0 {
		pcfg.BatchSize = cfg.BatchSize
	}
	pcfg.ShedAfter = cfg.ShedAfter
	pcfg.Tracer = cfg.Trace
	pcfg.Consolidate = cfg.Consolidate

	// Validate has held every planned slow, stall and crash to instance 0.
	var inj *faults.Injector
	if len(cfg.Faults) > 0 {
		inj = faults.NewInjector(faults.ForInstance(cfg.Faults, 0))
		pcfg.AdjustService = inj.AdjustServiceTime
	}

	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	specs := make([]pipeline.StreamSpec, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		specs[i] = cfg.stream(cam, tg, i)
		if inj != nil {
			specs[i].Source = inj.WrapSource(specs[i].Source, specs[i].ID)
		}
	}
	sys := pipeline.New(pcfg, specs)
	if at, ok := faults.CrashTime(cfg.Faults, 0); ok {
		clk.Go("fault-crash", func() {
			clk.Sleep(at)
			sys.Crash()
		})
	}
	if cfg.Timeline != nil {
		cfg.Timeline.BindTracer(cfg.Trace)
	}
	every := cfg.MetricsEvery
	if every <= 0 && cfg.Timeline != nil {
		every = timelineDefaultEvery
	}
	if every > 0 && (cfg.OnSnapshot != nil || cfg.Timeline != nil) {
		onSnap, rec := cfg.OnSnapshot, cfg.Timeline
		sys.Monitor(every, func(sn pipeline.Snapshot) {
			if rec != nil {
				rec.Observe(0, sn)
			}
			if onSnap != nil {
				onSnap(0, sn)
			}
		})
	}
	if ctx.Done() != nil {
		// Watcher process: polls the context on the run's clock (a
		// process cannot block on the context's channel — virtual time
		// would stall), and exits with the pipeline so the clock can
		// drain.
		clk.Go("ctx-watch", func() {
			for !sys.Finished() {
				if ctx.Err() != nil {
					sys.CancelAll()
					return
				}
				clk.Sleep(ctxPollInterval)
			}
		})
	}
	rep := sys.Run()
	if cfg.Timeline != nil {
		rep.Bottleneck = cfg.Timeline.Attribute(-1, 0, 0).Summary()
	}

	res := &Result{Pipeline: rep, Cancelled: rep.Cancelled, HostLag: clk.HostLag()}
	for _, sr := range rep.Streams {
		res.Accuracy.Merge(Analyze(sr.Records, cfg.NumberOfObjects))
	}
	return res, nil
}

// clock returns the run's clock, paced to the wall when asked.
func (c Config) clock() *vclock.VirtualClock {
	if c.Paced {
		return vclock.NewPaced()
	}
	return vclock.NewVirtual()
}

// stream mints stream i of the run over the camera's trained models.
func (c Config) stream(cam *lab.Camera, tg *detect.TinyGrid, i int) pipeline.StreamSpec {
	return cam.Stream(i, tg, lab.StreamOptions{
		Seed:            streamSeed(c.Seed, i),
		Frames:          c.FramesPerStream,
		FilterDegree:    c.FilterDegree,
		HasFilterDegree: true,
		NumberOfObjects: c.NumberOfObjects,
		Tolerance:       c.Tolerance,
	})
}

// Camera trains (or reuses the cached) camera of workload w at the
// given target-object ratio.
func Camera(w WorkloadKind, tor float64) (*lab.Camera, error) {
	if w == WorkloadPerson {
		return lab.PersonCamera(tor)
	}
	return lab.CarCamera(tor)
}

// Target returns the workload's target class.
func (w WorkloadKind) Target() frame.Class {
	if w == WorkloadPerson {
		return frame.ClassPerson
	}
	return frame.ClassCar
}

// Accuracy is the paper's accuracy accounting over one or more streams.
type Accuracy struct {
	// Frames is the number of analyzed frames with ground truth.
	Frames int64
	// EventFrames hold the ground-truth event (target count ≥
	// NumberOfObjects).
	EventFrames int64
	// FalseNegatives are event frames the cascade dropped.
	FalseNegatives int64
	// FalsePositives are non-event frames that reached the reference
	// model (wasted full-model work, not an accuracy loss).
	FalsePositives int64

	// Table 2 taxonomy: false-negative frames by run length.
	IsolatedSingle int64 // runs of exactly 1
	Isolated2To3   int64 // runs of 2–3
	RunsUnder30    int64 // runs of 4–29
	Runs30Plus     int64 // runs of ≥30

	// Scene-level accounting (§3.3: users care about scenes).
	Scenes         int64
	ScenesDetected int64
}

// Analyze computes accuracy for one stream's records against ground
// truth, with minObjects as the event-intensity threshold.
func Analyze(records []pipeline.Record, minObjects int) Accuracy {
	if minObjects < 1 {
		minObjects = 1
	}
	var a Accuracy
	sceneSeen := map[int64]bool{}
	sceneHit := map[int64]bool{}
	run := int64(0)
	flushRun := func() {
		switch {
		case run == 0:
		case run == 1:
			a.IsolatedSingle += run
		case run <= 3:
			a.Isolated2To3 += run
		case run < 30:
			a.RunsUnder30 += run
		default:
			a.Runs30Plus += run
		}
		run = 0
	}
	for _, rec := range records {
		if !rec.Done || rec.TruthCount < 0 {
			continue
		}
		a.Frames++
		isEvent := rec.TruthCount >= minObjects
		reachedRef := rec.Disposition == pipeline.Detected
		if isEvent {
			a.EventFrames++
			if rec.SceneID != 0 {
				sceneSeen[rec.SceneID] = true
				if reachedRef {
					sceneHit[rec.SceneID] = true
				}
			}
			if !reachedRef {
				a.FalseNegatives++
				run++
				continue
			}
		} else if reachedRef {
			a.FalsePositives++
		}
		flushRun()
	}
	flushRun()
	a.Scenes = int64(len(sceneSeen))
	a.ScenesDetected = int64(len(sceneHit))
	return a
}

// Merge accumulates another stream's accuracy into a.
func (a *Accuracy) Merge(b Accuracy) {
	a.Frames += b.Frames
	a.EventFrames += b.EventFrames
	a.FalseNegatives += b.FalseNegatives
	a.FalsePositives += b.FalsePositives
	a.IsolatedSingle += b.IsolatedSingle
	a.Isolated2To3 += b.Isolated2To3
	a.RunsUnder30 += b.RunsUnder30
	a.Runs30Plus += b.Runs30Plus
	a.Scenes += b.Scenes
	a.ScenesDetected += b.ScenesDetected
}

// ErrorRate is false-negative frames over all frames (paper §3.3).
func (a Accuracy) ErrorRate() float64 {
	if a.Frames == 0 {
		return 0
	}
	return float64(a.FalseNegatives) / float64(a.Frames)
}

// SceneLossRate is the fraction of ground-truth scenes with no surviving
// frame — the metric behind the paper's "<2% accuracy loss".
func (a Accuracy) SceneLossRate() float64 {
	if a.Scenes == 0 {
		return 0
	}
	return float64(a.Scenes-a.ScenesDetected) / float64(a.Scenes)
}

// String renders the accuracy summary.
func (a Accuracy) String() string {
	return fmt.Sprintf(
		"frames=%d events=%d FN=%d (%.2f%%) FP=%d runs[1]=%d runs[2-3]=%d runs[<30]=%d runs[30+]=%d scenes=%d/%d lost=%.2f%%",
		a.Frames, a.EventFrames, a.FalseNegatives, 100*a.ErrorRate(), a.FalsePositives,
		a.IsolatedSingle, a.Isolated2To3, a.RunsUnder30, a.Runs30Plus,
		a.ScenesDetected, a.Scenes, 100*a.SceneLossRate())
}
