// Package trace is FFS-VA's per-frame tracing layer: each frame carries
// a span record through the cascade (decode → SDD → SNM queue wait →
// batch assembly → SNM inference → T-YOLO wait/inference → reference),
// timestamped on the pipeline's clock so traces are deterministic under
// virtual time and real under wall time. The aggregate metrics of PR 1
// answer "how loaded is the system"; spans answer "where did frame 4711
// spend its latency" — the wait-vs-service decomposition the paper's
// queue-depth thresholds (§4.3.1) and dynamic batching (§4.3.2) act on.
//
// The layer costs nothing when off: a nil *Tracer produces nil
// *FrameTrace values, and every method on both is a nil-receiver no-op,
// so instrumented stages pay one pointer check per span. Frame records
// are pooled (and the poolrelease analyzer checks the discipline), so
// steady-state tracing does not allocate per frame.
//
// Retention is ring-buffer sampling with guaranteed keeps: the last
// Ring frames, plus head sampling (the first HeadN frames), plus the
// SlowN slowest frames, plus an ErrRing of dropped/failed frames —
// so the interesting tails survive long runs in bounded memory.
package trace

import (
	"fmt"
	"sync"
	"time"

	"ffsva/internal/metrics"
)

// Kind identifies one segment of a frame's journey. Wait kinds measure
// time spent queued (or parked in the spill store, or waiting for batch
// assembly); the rest measure service.
type Kind int8

// Span kinds, in cascade order.
const (
	KDecode      Kind = iota // source decode on the CPU
	KWaitSpill               // parked in the §5.5 spill store
	KWaitSDD                 // capture buffer / SDD queue wait
	KSDD                     // difference-detector service
	KWaitSNM                 // SNM queue wait (feedback threshold 10)
	KSNMAssemble             // batch assembly: resize + waiting on batchmates
	KSNMInfer                // SNM batched inference on a filter GPU
	KWaitTYolo               // T-YOLO queue wait (threshold 2) incl. fair-share wait
	KTYoloInfer              // shared T-YOLO service
	KWaitRef                 // reference queue wait
	KPack                    // consolidation: crop + shelf-pack onto canvases (CPU)
	KRef                     // reference model service on gpu1
	KUnpack                  // consolidation: translate canvas detections back per frame

	// NumKinds sizes per-kind arrays.
	NumKinds = 13
)

var kindNames = [NumKinds]string{
	"decode", "spill-wait", "sdd-wait", "sdd", "snm-wait", "snm-assemble",
	"snm-infer", "t-yolo-wait", "t-yolo", "ref-wait", "ref-pack", "ref", "ref-unpack",
}

// String names the kind as it appears on trace tracks.
func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// IsWait reports whether the kind measures waiting rather than service.
// Batch assembly counts as wait: while the batch is resized and filled,
// an individual frame is stalled on its batchmates, not being computed.
func (k Kind) IsWait() bool {
	switch k {
	case KWaitSpill, KWaitSDD, KWaitSNM, KSNMAssemble, KWaitTYolo, KWaitRef:
		return true
	}
	return false
}

// Span is one closed interval of a frame's journey.
type Span struct {
	Kind  Kind
	Start time.Duration
	End   time.Duration
	// Dev is the device that served the span ("" for waits).
	Dev string
	// Batch is the batch size the span was served in (0 = unbatched).
	Batch int32
	// Drop marks the span on which the frame left the cascade.
	Drop bool
}

// Dur returns the span length.
func (sp Span) Dur() time.Duration { return sp.End - sp.Start }

// FrameTrace accumulates one frame's spans. It travels with the frame
// and has a single owner at any time (the stage currently holding the
// frame); ownership handoff happens through the queues, whose lock
// orders the writes. All methods are safe on a nil receiver — that is
// the tracing-off fast path.
type FrameTrace struct {
	Stream   int
	Seq      int64
	Instance int
	// Start/End bound the frame's traced lifetime; Disposition and
	// Failed are stamped by Tracer.Finish.
	Start       time.Duration
	End         time.Duration
	Disposition string
	Failed      bool
	Spans       []Span

	// Pending wait, opened by BeginWait and closed by EndWait (or by the
	// next BeginWait, or by Finish).
	waitKind   Kind
	waitStart  time.Duration
	waitActive bool

	// refs counts retention containers holding the record (guarded by
	// the owning Tracer's mu).
	refs int
}

// BeginWait opens a wait span of kind k at now. An already-open wait is
// closed first, so handoffs like spill→capture-buffer need no explicit
// EndWait between them.
func (ft *FrameTrace) BeginWait(k Kind, now time.Duration) {
	if ft == nil {
		return
	}
	ft.EndWait(now)
	ft.waitKind, ft.waitStart, ft.waitActive = k, now, true
}

// EndWait closes the pending wait span at now; a no-op when none is
// open.
func (ft *FrameTrace) EndWait(now time.Duration) {
	if ft == nil || !ft.waitActive {
		return
	}
	ft.waitActive = false
	ft.Spans = append(ft.Spans, Span{Kind: ft.waitKind, Start: ft.waitStart, End: now})
}

// AddSpan records a closed span directly (the batched stages time the
// whole batch and attribute the interval to each member).
func (ft *FrameTrace) AddSpan(k Kind, start, end time.Duration, dev string, batch int) {
	if ft == nil {
		return
	}
	ft.Spans = append(ft.Spans, Span{Kind: k, Start: start, End: end, Dev: dev, Batch: int32(batch)})
}

// MarkDrop flags the most recent span as the frame's exit point; the
// batched stages use it because their spans are recorded via AddSpan
// after the verdict is known.
func (ft *FrameTrace) MarkDrop() {
	if ft == nil || len(ft.Spans) == 0 {
		return
	}
	ft.Spans[len(ft.Spans)-1].Drop = true
}

// StartSpan opens a service span and returns its handle; the stage must
// End or EndDrop it on every path, since a span left open records
// nothing.
func (ft *FrameTrace) StartSpan(k Kind, dev string, now time.Duration) SpanHandle {
	if ft == nil {
		return SpanHandle{}
	}
	return SpanHandle{ft: ft, kind: k, dev: dev, start: now}
}

// Latency returns the frame's traced end-to-end latency.
func (ft *FrameTrace) Latency() time.Duration {
	if ft == nil {
		return 0
	}
	return ft.End - ft.Start
}

// SpanHandle is an open service span. The zero value (from a nil
// FrameTrace) is inert.
type SpanHandle struct {
	ft    *FrameTrace
	kind  Kind
	dev   string
	start time.Duration
}

// End closes the span at now.
func (h SpanHandle) End(now time.Duration) { h.close(now, false) }

// EndDrop closes the span at now and marks it as the frame's exit point.
func (h SpanHandle) EndDrop(now time.Duration) { h.close(now, true) }

func (h SpanHandle) close(now time.Duration, drop bool) {
	if h.ft == nil {
		return
	}
	h.ft.Spans = append(h.ft.Spans, Span{Kind: h.kind, Start: h.start, End: now, Dev: h.dev, Drop: drop})
}

// Instant is a point event on an instance's timeline: a feedback-queue
// throttle engaging, a fault injection manifesting, a cluster
// fail/recover/re-forward decision.
type Instant struct {
	Name     string
	Cat      string
	Instance int
	At       time.Duration
}

// Options tunes a Tracer's retention. Zero fields take defaults.
type Options struct {
	// Ring is how many most-recent finished frames are kept (default
	// 256; negative disables the ring).
	Ring int
	// HeadN keeps the first N finished frames unconditionally (default
	// 32), so every trace file shows the pipeline filling.
	HeadN int
	// SlowN keeps the N slowest frames seen (default 16) — the p99 tail
	// the decomposition exists to explain.
	SlowN int
	// ErrRing keeps the most recent N dropped/failed frames (default
	// 64).
	ErrRing int
	// MaxInstants bounds the instant-event log (default 4096).
	MaxInstants int
	// MaxCounters bounds the counter-track sample log (default 32768;
	// the timeline recorder pushes a handful of points per tick).
	MaxCounters int
}

func (o *Options) fill() {
	if o.Ring == 0 {
		o.Ring = 256
	}
	if o.Ring < 0 {
		o.Ring = 0
	}
	if o.HeadN == 0 {
		o.HeadN = 32
	}
	if o.SlowN == 0 {
		o.SlowN = 16
	}
	if o.ErrRing == 0 {
		o.ErrRing = 64
	}
	if o.MaxInstants == 0 {
		o.MaxInstants = 4096
	}
	if o.MaxCounters == 0 {
		o.MaxCounters = 32768
	}
}

// kindHists is one per-kind set of latency histograms.
type kindHists [NumKinds]*metrics.Histogram

func newKindHists() *kindHists {
	var h kindHists
	for i := range h {
		h[i] = metrics.NewHistogram()
	}
	return &h
}

// Tracer owns retention and aggregation for one run (all instances of a
// cluster share one Tracer; spans carry their instance, so a stream
// re-forwarded across instances keeps its history in one file). A nil
// *Tracer is the disabled state: StartFrame returns nil and everything
// downstream no-ops.
type Tracer struct {
	opt  Options
	pool sync.Pool

	mu       sync.Mutex
	finished int64
	head     []*FrameTrace
	ring     []*FrameTrace // circular once full
	ringNext int
	slow     []*FrameTrace
	errs     []*FrameTrace // circular once full
	errNext  int
	instants []Instant
	instDrop int64
	counters []CounterPoint
	ctrDrop  int64

	// onInstant, when set, observes every Instant as it is recorded
	// (called outside tr.mu) — the timeline recorder's event intake.
	onInstant func(Instant)

	// global (-1) and per-instance span-duration histograms.
	hists map[int]*kindHists
	// global (-1) and per-instance cumulative span loads.
	loads map[int]*[NumKinds]KindLoad
}

// New creates an enabled Tracer.
func New(opt Options) *Tracer {
	opt.fill()
	tr := &Tracer{opt: opt, hists: map[int]*kindHists{}, loads: map[int]*[NumKinds]KindLoad{}}
	tr.pool.New = func() any { return new(FrameTrace) }
	return tr
}

// StartFrame begins tracing one frame at now. The record is pooled:
// every StartFrame must reach Finish (directly or by travelling with
// the frame to the pipeline's terminal point) or the pool refills from
// the heap. Returns nil when the tracer is disabled.
func (tr *Tracer) StartFrame(stream int, seq int64, instance int, now time.Duration) *FrameTrace {
	if tr == nil {
		return nil
	}
	ft := tr.pool.Get().(*FrameTrace)
	spans := ft.Spans[:0]
	*ft = FrameTrace{Stream: stream, Seq: seq, Instance: instance, Start: now, Spans: spans}
	return ft
}

// Finish closes a frame's trace: any pending wait span ends at now, the
// spans feed the per-stage histograms, and the record enters retention
// (or returns to the pool if no sampler keeps it). Safe with nil tr or
// nil ft.
func (tr *Tracer) Finish(ft *FrameTrace, disposition string, failed bool, now time.Duration) {
	if tr == nil || ft == nil {
		return
	}
	ft.EndWait(now)
	ft.End = now
	ft.Disposition = disposition
	ft.Failed = failed

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.finished++
	global := tr.histsFor(-1)
	inst := tr.histsFor(ft.Instance)
	gload := tr.loadsFor(-1)
	iload := tr.loadsFor(ft.Instance)
	for _, sp := range ft.Spans {
		d := sp.End - sp.Start
		global[sp.Kind].Observe(d)
		inst[sp.Kind].Observe(d)
		// Busy divides a batched span's interval by its batch size: the
		// batched stages stamp the whole batch interval onto every
		// member, so the raw total overcounts device time by the batch
		// factor. The normalized figure is the stage's true device-time
		// charge — the utilization numerator bottleneck attribution needs.
		busy := d
		if sp.Batch > 1 {
			busy = d / time.Duration(sp.Batch)
		}
		for _, ld := range []*[NumKinds]KindLoad{gload, iload} {
			ld[sp.Kind].Count++
			ld[sp.Kind].Total += d
			ld[sp.Kind].Busy += busy
		}
	}
	tr.retain(ft)
}

// KindLoad is one span kind's cumulative account: span count, summed
// span time (a frame-latency share: batch members each contribute the
// whole batch interval), and Busy, the batch-normalized device-time
// charge.
type KindLoad struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total"`
	Busy  time.Duration `json:"busy"`
}

// KindLoads returns the cumulative per-kind span loads for an instance
// (instance < 0 aggregates all). Cheap enough to sample every tick —
// unlike Decomposition it computes no quantiles. Zero value on a nil
// tracer.
func (tr *Tracer) KindLoads(instance int) [NumKinds]KindLoad {
	var out [NumKinds]KindLoad
	if tr == nil {
		return out
	}
	if instance < 0 {
		instance = -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if ld := tr.loads[instance]; ld != nil {
		out = *ld
	}
	return out
}

// loadsFor returns (creating if needed) the load array for an instance;
// callers hold tr.mu.
func (tr *Tracer) loadsFor(instance int) *[NumKinds]KindLoad {
	ld := tr.loads[instance]
	if ld == nil {
		ld = new([NumKinds]KindLoad)
		tr.loads[instance] = ld
	}
	return ld
}

// histsFor returns (creating if needed) the histogram set for an
// instance; callers hold tr.mu.
func (tr *Tracer) histsFor(instance int) *kindHists {
	h := tr.hists[instance]
	if h == nil {
		h = newKindHists()
		tr.hists[instance] = h
	}
	return h
}

// retain places ft in every sampler that wants it; callers hold tr.mu.
// A record kept by no sampler goes straight back to the pool.
func (tr *Tracer) retain(ft *FrameTrace) {
	if len(tr.head) < tr.opt.HeadN {
		tr.head = append(tr.head, ft)
		ft.refs++
	}
	if tr.opt.Ring > 0 {
		if len(tr.ring) < tr.opt.Ring {
			tr.ring = append(tr.ring, ft)
		} else {
			tr.release(tr.ring[tr.ringNext])
			tr.ring[tr.ringNext] = ft
			tr.ringNext = (tr.ringNext + 1) % tr.opt.Ring
		}
		ft.refs++
	}
	if tr.opt.SlowN > 0 {
		if len(tr.slow) < tr.opt.SlowN {
			tr.slow = append(tr.slow, ft)
			ft.refs++
		} else {
			min := 0
			for i := 1; i < len(tr.slow); i++ {
				if tr.slow[i].Latency() < tr.slow[min].Latency() {
					min = i
				}
			}
			if ft.Latency() > tr.slow[min].Latency() {
				tr.release(tr.slow[min])
				tr.slow[min] = ft
				ft.refs++
			}
		}
	}
	if tr.opt.ErrRing > 0 && (ft.Failed || ft.Disposition != "detected") {
		if len(tr.errs) < tr.opt.ErrRing {
			tr.errs = append(tr.errs, ft)
		} else {
			tr.release(tr.errs[tr.errNext])
			tr.errs[tr.errNext] = ft
			tr.errNext = (tr.errNext + 1) % tr.opt.ErrRing
		}
		ft.refs++
	}
	if ft.refs == 0 {
		tr.pool.Put(ft)
	}
}

// release drops one retention reference; at zero the record is pooled
// for reuse. Callers hold tr.mu.
func (tr *Tracer) release(ft *FrameTrace) {
	ft.refs--
	if ft.refs == 0 {
		tr.pool.Put(ft)
	}
}

// Instant records a point event (throttle transition, fault, cluster
// decision). The log is bounded by Options.MaxInstants; overflow is
// counted, not kept.
func (tr *Tracer) Instant(name, cat string, instance int, at time.Duration) {
	if tr == nil {
		return
	}
	in := Instant{Name: name, Cat: cat, Instance: instance, At: at}
	tr.mu.Lock()
	if len(tr.instants) < tr.opt.MaxInstants {
		tr.instants = append(tr.instants, in)
	} else {
		tr.instDrop++
	}
	hook := tr.onInstant
	tr.mu.Unlock()
	// The hook runs outside tr.mu (it may take its own locks) and sees
	// every instant, including ones the bounded log dropped — a dump
	// trigger must not vanish because the log filled.
	if hook != nil {
		hook(in)
	}
}

// SetOnInstant registers an observer for every subsequently recorded
// Instant. The hook is called outside the tracer's lock and must not
// call back into methods that record instants. One observer at a time;
// nil unregisters.
func (tr *Tracer) SetOnInstant(fn func(Instant)) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.onInstant = fn
	tr.mu.Unlock()
}

// CounterPoint is one sample on a named counter track: queue depth,
// busy fraction, backlog — the timeline signals the Perfetto export
// renders alongside the span trees.
type CounterPoint struct {
	Name     string
	Instance int
	At       time.Duration
	Value    float64
}

// Counter records one counter-track sample. The log is bounded by
// Options.MaxCounters; overflow is counted, not kept.
func (tr *Tracer) Counter(name string, instance int, at time.Duration, value float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if len(tr.counters) < tr.opt.MaxCounters {
		tr.counters = append(tr.counters, CounterPoint{Name: name, Instance: instance, At: at, Value: value})
	} else {
		tr.ctrDrop++
	}
	tr.mu.Unlock()
}

// FinishedFrames returns how many frames have completed tracing.
func (tr *Tracer) FinishedFrames() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.finished
}

// retained returns the deduplicated retained set; callers hold tr.mu.
func (tr *Tracer) retained() []*FrameTrace {
	seen := map[*FrameTrace]bool{}
	var out []*FrameTrace
	add := func(fts []*FrameTrace) {
		for _, ft := range fts {
			if ft != nil && !seen[ft] {
				seen[ft] = true
				out = append(out, ft)
			}
		}
	}
	add(tr.head)
	add(tr.ring)
	add(tr.slow)
	add(tr.errs)
	return out
}

// StageStat is one row of the wait-vs-service decomposition.
type StageStat struct {
	Kind  Kind
	Wait  bool
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	// Total is the summed span time — the stage's share of the run's
	// cumulative frame latency.
	Total time.Duration
}

// Decomposition returns per-stage latency statistics derived from the
// finished frames' spans, in cascade order, omitting stages no frame
// visited. instance < 0 aggregates all instances.
func (tr *Tracer) Decomposition(instance int) []StageStat {
	if tr == nil {
		return nil
	}
	if instance < 0 {
		instance = -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	hs := tr.hists[instance]
	if hs == nil {
		return nil
	}
	var out []StageStat
	for k := 0; k < NumKinds; k++ {
		h := hs[k]
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageStat{
			Kind: Kind(k), Wait: Kind(k).IsWait(),
			Count: h.Count(), Mean: h.Mean(),
			P50: h.Quantile(0.5), P99: h.Quantile(0.99),
			Max: h.Max(), Total: h.Sum(),
		})
	}
	return out
}
