// Package pipeline implements FFS-VA's four-stage pipelined filtering
// engine (paper §3.1): per-stream prefetch → SDD → SNM stages feeding a
// globally shared T-YOLO stage and a final reference-model stage, all
// decoupled by bounded feedback queues (§4.3.1), with static, feedback
// and dynamic batch policies for the SNM (§4.3.2), and task placement on
// modeled CPU/GPU devices.
//
// The engine runs on the deterministic virtual clock, whose processes
// never run at the same time, so its state needs no locks; filter
// decisions always come from running the real filter algorithms over the
// frames.
package pipeline

import (
	"fmt"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/metrics"
	"ffsva/internal/queue"
	"ffsva/internal/spill"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// Mode selects the paper's two scenarios.
type Mode int

// Analysis modes.
const (
	// Offline processes stored video as fast as possible.
	Offline Mode = iota
	// Online paces each stream at its capture FPS and must keep up.
	Online
)

// String names the mode.
func (m Mode) String() string {
	if m == Online {
		return "online"
	}
	return "offline"
}

// BatchPolicy selects how the SNM stage forms batches (paper §5.4).
type BatchPolicy int

// Batch policies.
const (
	// BatchStatic waits for a full BatchSize using effectively unbounded
	// queues (no feedback).
	BatchStatic BatchPolicy = iota
	// BatchFeedback waits for a full batch bounded by the queue depth
	// threshold (feedback-queue mechanism alone).
	BatchFeedback
	// BatchDynamic drains whatever is available up to BatchSize, never
	// waiting for a full batch (the paper's dynamic batch mechanism).
	BatchDynamic
)

// String names the policy.
func (b BatchPolicy) String() string {
	switch b {
	case BatchStatic:
		return "static"
	case BatchFeedback:
		return "feedback"
	default:
		return "dynamic"
	}
}

// Disposition records where a frame's journey ended.
type Disposition int8

// Frame dispositions.
const (
	DropSDD Disposition = iota
	DropSNM
	DropTYolo
	Detected // reached and was analyzed by the reference model
	// DropClosed marks a frame discarded because its downstream queue was
	// closed under its producer (System.forward). Each stage closes its
	// output only after its last put, so this stays zero unless an edge
	// is severed from outside; without it such frames would vanish with
	// no Record, leaving Done=false holes that silently skew accuracy and
	// latency accounting.
	DropClosed
	// DropError marks a frame lost to a fault: a decode failure past the
	// retry budget, a corrupted payload, or an instance crash while the
	// frame was in flight. Recording it keeps the conservation invariant
	// intact through failures.
	DropError
	// DropShed marks a frame dropped by the load-shedding bypass: with
	// Config.ShedAfter exceeded and the capture buffer full, ingest sheds
	// instead of stalling, preserving the ≥30 FPS capture guarantee.
	DropShed
	// DropAdmission marks a frame rejected before ingest: the cluster
	// scheduler refused the whole stream (tenant quota exhausted, cluster
	// quota exhausted, or no live instance), so its entire frame budget is
	// charged here. No pipeline ever sees these frames — the cluster
	// report's Drops ledger carries them, keeping cluster-wide frame
	// conservation (admitted + rejected = offered) checkable.
	DropAdmission

	// NumDispositions sizes per-disposition count arrays.
	NumDispositions = 8
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case DropSDD:
		return "drop-sdd"
	case DropSNM:
		return "drop-snm"
	case DropTYolo:
		return "drop-t-yolo"
	case DropClosed:
		return "drop-closed"
	case DropError:
		return "drop-error"
	case DropShed:
		return "drop-shed"
	case DropAdmission:
		return "drop-admission"
	default:
		return "detected"
	}
}

// Record is the per-frame outcome kept for accuracy and latency analysis.
// It deliberately retains no pixel data.
type Record struct {
	// Done distinguishes a written record from a zero value.
	Done        bool
	Seq         int64
	Disposition Disposition
	Captured    time.Duration
	Decided     time.Duration
	// TruthCount is the ground-truth number of target objects (from the
	// synthetic annotation); -1 when unknown.
	TruthCount int
	// SceneID is the ground-truth scene id (0 = none).
	SceneID int64
	// MaxVisible is the largest visible fraction among ground-truth
	// target boxes, 0 when none.
	MaxVisible float64
	// RefCount is the reference model's target count for frames that
	// reached it; -1 otherwise. Under consolidation this is the count
	// over the packed crops (truncation-adjusted).
	RefCount int
	// RefFullCount is what a full-frame reference inference counts for
	// the same frame; -1 when not measured. It differs from RefCount
	// only under consolidation, where crops can truncate objects —
	// lab.ScoreConsolidation reports the delta.
	RefFullCount int
}

// Latency returns the frame's decision latency.
func (r Record) Latency() time.Duration { return r.Decided - r.Captured }

// FrameSource produces a stream's frames; vidgen.Stream implements it.
type FrameSource interface {
	Next() *frame.Frame
}

// CaptureSource is a FrameSource that can decide a frame without
// drawing it: Capture returns the frame Next would, with Pix nil until
// frame.Frame.Draw (vidgen.Stream and faults.Source implement it). The
// prefetcher captures from such a source and the SDD stage draws, so a
// frame parked in a capture buffer or the spill store costs its record,
// not its plane, and one dropped before SDD is never drawn. The decode
// is charged at capture either way.
type CaptureSource interface {
	FrameSource
	Capture() *frame.Frame
}

// FallibleSource is a FrameSource whose decodes can fail (fault
// injection; faults.Source implements it). The prefetcher probes
// DecodeFails before pulling: each true is one failed attempt, retried
// within decodeRetryBudget (2). A frame still failing past the budget is
// abandoned via Discard — the source advances past it without delivering
// a frame — and recorded as DropError so the conservation ledger stays
// complete. The probe/pull split keeps the actual pull atomic with the
// stop check (continuation sizing), which a consuming try-decode could
// not.
type FallibleSource interface {
	FrameSource
	DecodeFails() bool
	Discard()
}

// StreamSpec is one video stream plus its specialized filters.
type StreamSpec struct {
	ID     int
	Source FrameSource
	// Frames is how many frames to process.
	Frames int
	// FPS paces online ingest (default 30).
	FPS int
	// StartAt delays the stream's first frame (cluster admission).
	StartAt time.Duration

	SDD *filters.SDD
	SNM *filters.SNM
	// TYolo is this stream's counting filter; its Det detector is shared
	// across streams by construction.
	TYolo *filters.TYolo
	// Target is the stream's target class, used for record truth fields.
	Target frame.Class
	// SeqBase is the source sequence number of the stream's first frame;
	// non-zero when a stream is a migrated continuation (cluster
	// re-forwarding) of an earlier stream.
	SeqBase int64
}

// Config assembles a System.
type Config struct {
	Clock *vclock.VirtualClock
	Costs device.CostModel
	// ChargeCosts enables device service-time charging. When false the
	// pipeline is purely functional (real compute, no modeled time).
	ChargeCosts bool
	Mode        Mode
	BatchPolicy BatchPolicy
	// BatchSize is the SNM batch bound (paper default 10 in-pipeline).
	BatchSize int
	// Queue depth thresholds (paper §4.3.1 defaults 2/10/2).
	DepthSDD, DepthSNM, DepthTYolo int
	// NumTYolo caps frames taken from one stream per T-YOLO cycle
	// (§3.2.3 inter-stream fairness).
	NumTYolo int
	// DepthRef bounds the reference queue.
	DepthRef int
	// IngestBuffer is the online capture buffer in frames: scene bursts
	// park here while the back-end catches up, so ingest holds 30 FPS
	// (the paper's bypass; it reports online latencies of several
	// seconds as tolerable). Offline runs use DepthSDD instead, since
	// stored video needs no capture buffer.
	IngestBuffer int
	// SpillToStorage enables the §5.5 burst remedy: when a stream's
	// capture buffer is full, frames divert to a disk-backed spill store
	// instead of blocking ingest, and re-inject in order once the
	// pipeline has room. Online mode only.
	SpillToStorage bool
	// FilterGPUs is how many GPUs carry the filter stages (the paper's
	// §4.3.2 note: "tasks of SNM or T-YOLO can be reasonably distributed
	// across multiple GPUs"). Each stream's SNM is pinned to GPU
	// (ID mod FilterGPUs); the shared T-YOLO round-robins its batches
	// across all filter GPUs. The reference model always has its own
	// additional GPU. Default 1, the paper's two-GPU server.
	FilterGPUs int
	// CPUSlots is CPU core capacity for decode/SDD/resize tasks.
	CPUSlots int
	// Ref is the reference model detector (shared).
	Ref detect.Detector
	// RefConf is the confidence threshold applied to the reference
	// model's detections when counting target objects; zero means the
	// default 0.5.
	RefConf float64

	// Consolidate turns on object-level consolidation of the reference
	// tier (Rivas et al.): instead of one full-frame reference inference
	// per surviving frame, T-YOLO's candidate boxes are cropped with
	// padding, shelf-packed into fixed canvases across streams, and each
	// canvas costs one reference inference. See DESIGN.md §15.
	Consolidate bool

	// Fault tolerance.

	// ShedAfter enables the load-shedding bypass when positive: once a
	// stream's ingest lateness exceeds it, frames that do not fit in the
	// capture buffer are shed (DropShed) instead of blocking ingest, so
	// capture holds its FPS while the back-end is degraded. Zero keeps
	// the default blocking behaviour.
	ShedAfter time.Duration
	// AdjustService, when set, post-processes every modeled device
	// service time: it receives the device name, the current clock time,
	// and the nominal duration, and returns the duration to charge. The
	// faults package supplies it to inject device slowdowns and stalls;
	// it must be fast and must not block.
	AdjustService func(dev string, now, dur time.Duration) time.Duration
	// HeartbeatEvery, when positive, runs a liveness heartbeat process:
	// the instance stamps its clock time every interval until it crashes
	// or finishes. A cluster manager detects a dead instance by the
	// stamp going stale. Zero (the default) runs no heartbeat.
	HeartbeatEvery time.Duration

	// Tracer, when set, records a per-frame span trace (queue waits,
	// batch assembly, per-device service; see internal/trace). Nil — the
	// default — keeps the hot path span-free: frames carry a nil trace
	// record and every instrumentation point is one pointer check.
	Tracer *trace.Tracer
	// Instance tags this pipeline's spans and instants with its cluster
	// instance id (0 for single-instance runs), so one Tracer can hold a
	// whole cluster's timeline.
	Instance int

	// Ablation switches (not part of the paper's system; used by the
	// ablation benches to quantify each design choice).

	// DisableSDD bypasses the difference detector: every frame goes
	// straight to the SNM.
	DisableSDD bool
	// DisableSNM bypasses the specialized network: every SDD survivor
	// goes straight to T-YOLO.
	DisableSNM bool
	// PerStreamTYolo models one private T-YOLO per stream instead of the
	// shared model: every T-YOLO batch pays a full model reload
	// (tyoloReload).
	PerStreamTYolo bool
}

// Fixed model constants no run varies.
const (
	// tyoloReload is the per-batch T-YOLO reload charge under
	// PerStreamTYolo: ~1.2 GB over PCIe.
	tyoloReload = 60 * time.Millisecond
	// decodeRetryBudget is how many times a failed frame decode is
	// retried before the frame is abandoned with DropError.
	decodeRetryBudget = 2
)

// DefaultConfig returns the paper's defaults on a fresh clock.
func DefaultConfig(clk *vclock.VirtualClock) Config {
	return Config{
		Clock:       clk,
		Costs:       device.Calibrated(),
		ChargeCosts: true,
		Mode:        Offline,
		BatchPolicy: BatchDynamic,
		BatchSize:   10,
		DepthSDD:    2, DepthSNM: 10, DepthTYolo: 2,
		NumTYolo: 8,
		DepthRef: 4,
		CPUSlots: 16,
		Ref:      detect.NewOracle(detect.DefaultOracleConfig()),
	}
}

func (c *Config) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 10
	}
	if c.DepthSDD <= 0 {
		c.DepthSDD = 2
	}
	if c.DepthSNM <= 0 {
		c.DepthSNM = 10
	}
	if c.DepthTYolo <= 0 {
		c.DepthTYolo = 2
	}
	if c.DepthRef <= 0 {
		c.DepthRef = 4
	}
	if c.NumTYolo <= 0 {
		c.NumTYolo = 8
	}
	if c.CPUSlots <= 0 {
		c.CPUSlots = 16
	}
	if c.IngestBuffer <= 0 {
		c.IngestBuffer = 600 // 20 s at 30 FPS
	}
	if c.FilterGPUs <= 0 {
		c.FilterGPUs = 1
	}
	if c.RefConf <= 0 {
		c.RefConf = 0.5
	}
}

// streamState is the per-stream runtime.
type streamState struct {
	spec StreamSpec

	sddQ *queue.Queue[*frame.Frame]
	snmQ *queue.Queue[*frame.Frame]
	tyQ  *queue.Queue[*frame.Frame]

	records []Record
	spill   *spill.Store // nil unless Config.SpillToStorage

	ingested  int64
	firstCap  time.Duration
	lastDone  time.Duration
	ingestLag time.Duration // worst lateness vs. the capture schedule
	curLag    time.Duration // most recent lateness (overload signal)
	// counts tallies decided frames by Disposition as they finish, so the
	// live Snapshot can report per-stage drops before Report runs.
	counts     [NumDispositions]int64
	stop       bool // set by StopStream; prefetch halts at next frame
	ingestDone bool // prefetch exhausted its frames (or stopped)

	// pub is the stream's last published StreamSnapshot (see
	// System.publishStream); nil until the first Snapshot.
	pub *StreamSnapshot
}

// System is one FFS-VA instance: devices, queues, and stage processes for
// a set of streams.
type System struct {
	cfg Config

	cpu *device.Device
	// filterGPUs carry SNMs and T-YOLO (paper placement: one GPU shared
	// by all filters; more with Config.FilterGPUs).
	filterGPUs []*device.Device
	gpu1       *device.Device // reference model
	disk       *device.Device // spill storage (nil unless enabled)

	streams []*streamState
	refQ    *queue.Queue[*frame.Frame]
	// ref is the reference stage's scratch, reused by every frame and
	// consolidation round.
	ref refScratch

	// tyNotifies has one wake signal per T-YOLO worker (one worker per
	// filter GPU; streams are partitioned by ID).
	tyNotifies []*notify
	tyLive     int // running T-YOLO workers

	start     time.Duration
	end       time.Duration
	tyMeter   *metrics.Meter
	latency   *metrics.Histogram
	refServed metrics.Counter

	// reg is the system's metrics registry; Snapshot exports it. The
	// named metrics below are cached handles into it.
	reg       *metrics.Registry
	ingestCtr *metrics.Counter        // frames_ingested_total
	dispCtr   *metrics.LabeledCounter // frames_disposed_total{disposition}
	orphanCtr *metrics.Counter        // frames_orphaned_total (no owning stream)
	canvasCtr *metrics.Counter        // ref_canvases_total (consolidation canvases inferred)
	snmBatch  *metrics.IntDist        // snm_batch_size
	faultCtr  *metrics.Counter        // faults_injected_total
	retryCtr  *metrics.Counter        // retries_total (decode retries)
	shedCtr   *metrics.Counter        // shed_frames_total

	// pub is what the last Snapshot published, for the next to share.
	pub published

	started   bool
	finished  bool // refStage exited: no further frame can be decided
	cancelled bool // CancelAll stopped ingest early
	crashed   bool // Crash() killed the instance
	liveSNM   int  // SNM stages still running + holds
	// lastBeat is the heartbeat's latest clock stamp; it freezes when the
	// instance crashes or finishes.
	lastBeat time.Duration
}

// New builds a System; Start launches its processes on the configured
// clock.
func New(cfg Config, specs []StreamSpec) *System {
	cfg.fill()
	if cfg.Clock == nil {
		panic("pipeline: Config.Clock is required")
	}
	if cfg.Ref == nil {
		panic("pipeline: Config.Ref is required")
	}
	if cfg.PerStreamTYolo {
		// Inflate the T-YOLO activation charge to a full model reload;
		// tyWorker invalidates the device before each batch so it is paid
		// every time.
		costs := device.CostModel{}
		for k, v := range cfg.Costs {
			costs[k] = v
		}
		c := costs[device.ModelTYolo]
		c.Activate = tyoloReload
		costs[device.ModelTYolo] = c
		cfg.Costs = costs
	}
	reg := metrics.NewRegistry()
	s := &System{
		cfg:       cfg,
		cpu:       device.New(cfg.Clock, "cpu", device.CPU, cfg.CPUSlots),
		refQ:      queue.New[*frame.Frame](cfg.Clock, "ref", cfg.DepthRef),
		tyMeter:   reg.Meter("tyolo_fps", time.Second, 5),
		latency:   reg.Histogram("frame_latency"),
		reg:       reg,
		ingestCtr: reg.Counter("frames_ingested_total"),
		dispCtr:   reg.LabeledCounter("frames_disposed_total"),
		orphanCtr: reg.Counter("frames_orphaned_total"),
		canvasCtr: reg.Counter("ref_canvases_total"),
		snmBatch:  reg.IntDist("snm_batch_size"),
		faultCtr:  reg.Counter("faults_injected_total"),
		retryCtr:  reg.Counter("retries_total"),
		shedCtr:   reg.Counter("shed_frames_total"),
	}
	for i := 0; i < cfg.FilterGPUs; i++ {
		s.filterGPUs = append(s.filterGPUs, device.New(cfg.Clock, fmt.Sprintf("gpu%d", i), device.GPU, 1))
	}
	s.gpu1 = device.New(cfg.Clock, fmt.Sprintf("gpu%d", cfg.FilterGPUs), device.GPU, 1)
	for i := 0; i < cfg.FilterGPUs; i++ {
		s.tyNotifies = append(s.tyNotifies, newNotify(cfg.Clock))
	}
	if cfg.SpillToStorage {
		s.disk = device.New(cfg.Clock, "ssd", device.Disk, 1)
	}
	if cfg.AdjustService != nil {
		devs := append([]*device.Device{s.cpu, s.gpu1}, s.filterGPUs...)
		if s.disk != nil {
			devs = append(devs, s.disk)
		}
		for _, d := range devs {
			d := d
			d.SetAdjust(func(now, dur time.Duration) time.Duration {
				nd := cfg.AdjustService(d.Name, now, dur)
				if nd != dur {
					s.faultCtr.Inc()
					cfg.Tracer.Instant("fault "+d.Name, "fault", cfg.Instance, now)
				}
				return nd
			})
		}
	}
	s.traceHooks(s.refQ, trace.KWaitRef)
	for _, spec := range specs {
		s.streams = append(s.streams, s.newStream(spec))
	}
	return s
}

// newStream validates a spec and builds its runtime state.
func (s *System) newStream(spec StreamSpec) *streamState {
	if spec.Frames <= 0 {
		panic(fmt.Sprintf("pipeline: stream %d has no frames", spec.ID))
	}
	if spec.FPS <= 0 {
		spec.FPS = 30
	}
	cfg := s.cfg
	snmDepth := cfg.DepthSNM
	if cfg.BatchPolicy == BatchStatic {
		// Static batching has no feedback: the SNM queue must hold a
		// full batch regardless of the depth threshold.
		snmDepth = max(cfg.BatchSize*4, cfg.DepthSNM)
	}
	sddDepth := cfg.DepthSDD
	if cfg.Mode == Online {
		sddDepth = max(cfg.IngestBuffer, cfg.DepthSDD)
	}
	var store *spill.Store
	if cfg.SpillToStorage && cfg.Mode == Online {
		store = spill.New(cfg.Clock, s.disk, cfg.ChargeCosts)
	}
	st := &streamState{
		spec:    spec,
		spill:   store,
		sddQ:    queue.New[*frame.Frame](cfg.Clock, fmt.Sprintf("sdd[%d]", spec.ID), sddDepth),
		snmQ:    queue.New[*frame.Frame](cfg.Clock, fmt.Sprintf("snm[%d]", spec.ID), snmDepth),
		tyQ:     queue.New[*frame.Frame](cfg.Clock, fmt.Sprintf("ty[%d]", spec.ID), cfg.DepthTYolo),
		records: make([]Record, spec.Frames),
	}
	s.traceHooks(st.sddQ, trace.KWaitSDD)
	s.traceHooks(st.snmQ, trace.KWaitSNM)
	s.traceHooks(st.tyQ, trace.KWaitTYolo)
	return st
}

// traceHooks turns a queue's put→pop interval into a queue-wait span on
// the resident frame and its feedback throttling into instant events.
// No-op when tracing is off.
func (s *System) traceHooks(q *queue.Queue[*frame.Frame], k trace.Kind) {
	tr := s.cfg.Tracer
	if tr == nil {
		return
	}
	instance := s.cfg.Instance
	throttle := "throttle " + q.Name()
	q.SetHooks(queue.Hooks[*frame.Frame]{
		OnPut: func(f *frame.Frame, now time.Duration) {
			f.Trace.BeginWait(k, now)
		},
		OnPop: func(f *frame.Frame, now time.Duration) {
			f.Trace.EndWait(now)
		},
		OnBlocked: func(now time.Duration) {
			tr.Instant(throttle, "feedback", instance, now)
		},
	})
}

// notify is a clock-integrated counting signal used to wake the shared
// T-YOLO coordinator when any stream enqueues work.
type notify struct {
	cond   *vclock.Cond
	n      int
	closed bool
}

func newNotify(clk *vclock.VirtualClock) *notify {
	return &notify{cond: clk.NewCond()}
}

func (n *notify) add(k int) {
	n.n += k
	n.cond.Signal()
}

func (n *notify) sub(k int) { n.n -= k }

// wait blocks until work is pending or the signal is closed; it reports
// whether work may remain.
func (n *notify) wait() bool {
	for n.n <= 0 && !n.closed {
		n.cond.Wait()
	}
	return n.n > 0 || !n.closed
}

func (n *notify) close() {
	n.closed = true
	n.cond.Broadcast()
}
