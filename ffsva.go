// Package ffsva is a pure-Go reproduction of FFS-VA, the Fast Filtering
// System for Large-scale Video Analytics (Zhang et al., ICPP 2018).
//
// FFS-VA puts a cascade of three cheap filters in front of an expensive
// full-feature object-detection model so that large-scale surveillance
// video can be analyzed in real time on modest hardware:
//
//  1. SDD — a per-stream difference detector that drops background frames,
//  2. SNM — a per-stream 3-layer CNN that drops non-target-object frames,
//  3. T-YOLO — a small shared detection model that drops frames with
//     fewer than a user-chosen number of target objects,
//
// with the survivors analyzed by the reference model (YOLOv2 in the
// paper). The pipeline is held together by bounded feedback queues, a
// dynamic batching mechanism, and CPU/GPU task placement; see DESIGN.md
// for the system inventory and EXPERIMENTS.md for the reproduction of
// every table and figure in the paper's evaluation.
//
// This package is the public facade. A minimal use:
//
//	cfg := ffsva.DefaultConfig()
//	cfg.Streams = 4
//	cfg.Mode = ffsva.Online
//	res, err := ffsva.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Pipeline)  // throughput, latency, per-stage counts
//	fmt.Println(res.Accuracy)  // error rate, scene loss, Table-2 taxonomy
//
// Lower-level building blocks (the pipeline engine, the filters, the
// synthetic workload generator, the discrete-event clock) live under
// internal/ and are exercised through this API, the ffsva command in
// cmd/ffsva, the example program in examples/quickstart, and the
// experiment harness in cmd/ffsbench.
package ffsva

import (
	"context"

	"ffsva/internal/cluster"
	"ffsva/internal/core"
	"ffsva/internal/faults"
	"ffsva/internal/obs"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
)

// Re-exported configuration and result types.
type (
	// Config describes a complete FFS-VA run.
	Config = core.Config
	// Result bundles performance and accuracy outcomes.
	Result = core.Result
	// ClusterConfig describes a multi-instance run (§4.3): the same
	// workload description as Config plus an instance count and a
	// stream arrival cadence. Placement is least-load, and it, the
	// overload and spare-capacity thresholds and the manager's timing
	// (a 1 s monitor period, three overloaded checks before a
	// re-forward, a 500 ms heartbeat, a 2 s fail timeout) are fixed,
	// not knobs.
	ClusterConfig = core.ClusterConfig
	// ClusterReport aggregates a finished multi-instance run.
	ClusterReport = cluster.Report
	// ClusterEvent is one control-plane action (admit, reject,
	// re-forward, fail, recover) in ClusterReport.Events.
	ClusterEvent = cluster.Event
	// Rejection is one arrival refused admission because no instance
	// was live, in ClusterReport.Rejections; its frames are charged to
	// DropAdmission.
	Rejection = cluster.Rejection
	// Accuracy is the paper's accuracy accounting.
	Accuracy = core.Accuracy
	// Report is the pipeline performance report.
	Report = pipeline.Report
	// StreamReport is per-stream accounting inside a Report.
	StreamReport = pipeline.StreamReport
	// Record is one frame's outcome.
	Record = pipeline.Record
	// WorkloadKind selects the evaluation workload family.
	WorkloadKind = core.WorkloadKind
	// Mode selects offline or online analysis.
	Mode = pipeline.Mode
	// BatchPolicy selects the SNM batching mechanism.
	BatchPolicy = pipeline.BatchPolicy
	// Disposition records where a frame's journey ended.
	Disposition = pipeline.Disposition
	// Fault is one entry in a fault-injection plan (Config.Faults).
	Fault = faults.Fault
	// FaultKind classifies injected faults.
	FaultKind = faults.Kind
	// Tracer records a span tree per frame when set as Config.Trace;
	// after the run, export with WriteTraceEvents (Perfetto-loadable
	// Chrome trace-event JSON).
	Tracer = trace.Tracer
	// TraceOptions is the tracer's (empty) option set: retention is
	// fixed (first 32 frames, last 256, slowest 16, last 64 dropped or
	// failed).
	TraceOptions = trace.Options
	// StageStat is one row of the wait-vs-service latency decomposition
	// in Report.Spans.
	StageStat = trace.StageStat
	// Snapshot is one observation of the running pipeline (Config.OnSnapshot).
	Snapshot = pipeline.Snapshot
	// ObsServer is the live observability HTTP endpoint (/metrics,
	// /snapshot, /healthz, /tracez, /timeline, /bottleneck); feed it via
	// Config.OnSnapshot and ObsServer.SetTimeline.
	ObsServer = obs.Server
	// Timeline is the flight recorder (Config.Timeline): a bounded ring
	// of deterministic ticks with per-stage and per-device rollups, an
	// event log, queryable windows (/timeline), and the bottleneck
	// attribution engine behind Report.Bottleneck and the /bottleneck
	// endpoint.
	Timeline = timeline.Recorder
	// TimelineOptions sets the flight recorder's tracer. The bounds are
	// fixed: a 4096-tick ring and 1024 events.
	TimelineOptions = timeline.Options
	// TimelineTick is one flight-recorder sample.
	TimelineTick = timeline.Tick
	// TimelineEvent is one point event on the timeline.
	TimelineEvent = timeline.Event
	// TimelineWindow is the /timeline response document (Timeline.Window).
	TimelineWindow = timeline.WindowDoc
	// Verdict is the ranked binding-constraint verdict
	// (Timeline.Attribute, the /bottleneck endpoint).
	Verdict = timeline.Verdict
	// TierVerdict is one tier's USE classification inside a Verdict.
	TierVerdict = timeline.TierVerdict
)

// Workloads (Table 1).
const (
	WorkloadCar    = core.WorkloadCar
	WorkloadPerson = core.WorkloadPerson
)

// Modes.
const (
	Offline = pipeline.Offline
	Online  = pipeline.Online
)

// Batch policies (paper §4.3.2, §5.4).
const (
	BatchStatic   = pipeline.BatchStatic
	BatchFeedback = pipeline.BatchFeedback
	BatchDynamic  = pipeline.BatchDynamic
)

// Frame dispositions.
const (
	DropSDD       = pipeline.DropSDD
	DropSNM       = pipeline.DropSNM
	DropTYolo     = pipeline.DropTYolo
	Detected      = pipeline.Detected
	DropClosed    = pipeline.DropClosed
	DropError     = pipeline.DropError
	DropShed      = pipeline.DropShed
	DropAdmission = pipeline.DropAdmission
)

// Fault kinds (Config.Faults).
const (
	FaultDecodeError   = faults.DecodeError
	FaultCorruptFrame  = faults.CorruptFrame
	FaultDeviceSlow    = faults.DeviceSlow
	FaultDeviceStall   = faults.DeviceStall
	FaultInstanceCrash = faults.InstanceCrash
)

// ParseFault parses one fault-injection spec such as
// "crash:inst=1,at=8s", "slow:dev=gpu0,from=2s,until=10s,x=2",
// "stall:dev=gpu1,from=3s,until=4s", "decode:stream=0,seq=100-200,attempts=3",
// or "corrupt:stream=0,seq=100-200"; see the faults package for the
// full syntax.
func ParseFault(spec string) (Fault, error) { return faults.Parse(spec) }

// Configuration validation sentinels. Config.Validate (called by Run,
// RunContext, and the cluster entry points) wraps these with the
// offending value; branch on them with errors.Is.
var (
	ErrBadStreams         = core.ErrBadStreams
	ErrBadFrames          = core.ErrBadFrames
	ErrBadTOR             = core.ErrBadTOR
	ErrBadFilterDegree    = core.ErrBadFilterDegree
	ErrBadBatchSize       = core.ErrBadBatchSize
	ErrBadWorkload        = core.ErrBadWorkload
	ErrBadTolerance       = core.ErrBadTolerance
	ErrBadNumberOfObjects = core.ErrBadNumberOfObjects
	ErrBadInstances       = core.ErrBadInstances
	ErrBadFault           = core.ErrBadFault
)

// DefaultConfig returns a ready-to-run configuration (one offline car
// stream at TOR 0.10 under the deterministic virtual clock).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultClusterConfig returns a ready-to-run two-instance
// configuration with four streams arriving two seconds apart.
func DefaultClusterConfig() ClusterConfig { return core.DefaultClusterConfig() }

// Run executes a complete FFS-VA run: train (cached) per-camera models,
// assemble the pipelined system, process every stream, and analyze
// accuracy against ground truth. It is RunContext with a background
// context.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunContext is Run with cancellation. When ctx is cancelled mid-run,
// ingest stops at each stream's next frame boundary, frames already in
// flight drain through the cascade to a final disposition, and the
// partial Result comes back with Cancelled set and a nil error — the
// partial numbers are internally consistent. Cancellation before the
// pipeline starts returns ctx.Err() instead.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return core.RunContext(ctx, cfg)
}

// RunCluster spreads the configured streams over a multi-instance
// cluster (§4.3) — arrivals placed on the instance with spare capacity,
// streams re-forwarded off overloaded instances — and returns the
// cluster report.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) { return core.RunCluster(cfg) }

// RunClusterContext is RunCluster with cancellation, with the same
// partial-result semantics as RunContext.
func RunClusterContext(ctx context.Context, cfg ClusterConfig) (*ClusterReport, error) {
	return core.RunClusterContext(ctx, cfg)
}

// Analyze computes the paper's accuracy accounting for one stream's
// records with the given event-intensity threshold.
func Analyze(records []Record, minObjects int) Accuracy { return core.Analyze(records, minObjects) }

// NewTracer builds a per-frame tracer (TraceOptions has no fields). Set
// it as Config.Trace before the run and export it afterwards.
func NewTracer(opt TraceOptions) *Tracer { return trace.New(opt) }

// NewObsServer builds the live observability endpoint for addr; a
// host-less addr like ":8080" binds 127.0.0.1. tr may be nil. Wire
// server.Push into Config.OnSnapshot (with Config.MetricsEvery set) and
// call Start/Close around the run.
func NewObsServer(addr string, tr *Tracer) *ObsServer { return obs.NewServer(addr, tr) }

// NewTimeline builds the flight recorder (zero TimelineOptions for no
// tracer). Set it as Config.Timeline before the run; query Window and
// Attribute during or after it.
func NewTimeline(opt TimelineOptions) *Timeline { return timeline.New(opt) }

// ValidateTrace structurally checks an exported Chrome trace-event JSON
// document (trace-smoke and tests use it; Perfetto is the real judge).
func ValidateTrace(data []byte) error { return trace.Validate(data) }
