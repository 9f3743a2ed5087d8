package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
)

// span is one timed call into a layer, recorded from outside the
// program. Parent is the span that caused it (-1 for a root); Stream and
// Seq are the identifier the spans of one frame share.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // wall time since the recorder's epoch
	Stream     int
	Seq        int64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names: one per decorated call.
const (
	spanRun    = "run"
	spanReplay = "replay"
	spanSource = "vidgen.next"
	spanTYolo  = "detect.tinygrid"
	spanRef    = "detect.oracle"
	spanMint   = "lab.mint"
	spanSDD    = "filters.sdd"
	spanSNM    = "filters.snm"
)

// tracing is the benchmark's own span recorder. A nil *tracing is the
// untraced state: every wrap method hands its argument back untouched,
// so the timed runs execute exactly the program's own code.
type tracing struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	root  int // span new spans are children of
}

func newTracing() *tracing { return &tracing{epoch: wallNow(), root: -1} }

// begin opens a root-level span (a run or a replay) and makes it the
// parent of everything recorded until end.
func (tr *tracing) begin(name string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: -1, Name: name, Start: wallSince(tr.epoch), Stream: -1, Seq: -1})
	tr.root = id
	return id
}

func (tr *tracing) end(id int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = wallSince(tr.epoch)
	tr.root = -1
}

// add records one finished call that started at t.
func (tr *tracing) add(name string, t time.Time, stream int, seq int64) {
	end := wallSince(tr.epoch)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: tr.root, Name: name,
		Start: t.Sub(tr.epoch), End: end, Stream: stream, Seq: seq})
	tr.mu.Unlock()
}

// --- decorators -------------------------------------------------------

type tracedSource struct {
	inner  pipeline.FrameSource
	tr     *tracing
	stream int
}

func (s *tracedSource) Next() *frame.Frame {
	t := wallNow()
	f := s.inner.Next()
	s.tr.add(spanSource, t, s.stream, f.Seq)
	return f
}

// Background forwards the hook cluster re-forwarding and the fault
// wrapper look for on a source.
func (s *tracedSource) Background() *imgproc.Gray {
	if bg, ok := s.inner.(interface{ Background() *imgproc.Gray }); ok {
		return bg.Background()
	}
	return nil
}

type tracedDetector struct {
	inner detect.Detector
	tr    *tracing
	name  string
}

func (d *tracedDetector) Detect(f *frame.Frame) []detect.Detection {
	t := wallNow()
	dets := d.inner.Detect(f)
	d.tr.add(d.name, t, f.StreamID, f.Seq)
	return dets
}

// InputSize forwards the scale filters.TYolo rescales candidate boxes
// by; 0 (a detector working at frame scale) means no rescaling there.
func (d *tracedDetector) InputSize() int {
	if sized, ok := d.inner.(interface{ InputSize() int }); ok {
		return sized.InputSize()
	}
	return 0
}

// wrapSpec decorates a minted stream's source and its (shared) T-YOLO
// detector. It runs after lab.Camera.Stream, which needs the bare
// *detect.TinyGrid to seed the background.
func (tr *tracing) wrapSpec(spec *pipeline.StreamSpec) {
	if tr == nil {
		return
	}
	spec.Source = &tracedSource{inner: spec.Source, tr: tr, stream: spec.ID}
	spec.TYolo.Det = &tracedDetector{inner: spec.TYolo.Det, tr: tr, name: spanTYolo}
}

// wrapConfig decorates the reference detector and attaches the
// product's own tracer, whose wait-vs-service decomposition the
// pipeline.model_wait_share.* metrics read.
func (tr *tracing) wrapConfig(cfg *pipeline.Config) {
	if tr == nil {
		return
	}
	cfg.Ref = &tracedDetector{inner: cfg.Ref, tr: tr, name: spanRef}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.New(trace.Options{})
	}
}

func (tr *tracing) wrapMake(stream int, mk func(*detect.TinyGrid) pipeline.StreamSpec) func(*detect.TinyGrid) pipeline.StreamSpec {
	if tr == nil {
		return mk
	}
	return func(tg *detect.TinyGrid) pipeline.StreamSpec {
		t := wallNow()
		spec := mk(tg)
		tr.add(spanMint, t, stream, -1)
		return spec
	}
}

// --- analysis ---------------------------------------------------------

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover (children may overlap each other; the
// covered part is their union clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// totals sums span durations by name under one root.
func (tr *tracing) totals(root int) map[string]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range tr.spans {
		if s.Parent == root {
			out[s.Name] += s.dur()
		}
	}
	return out
}

func (tr *tracing) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// traceEvent is one Chrome trace-event ("X" = complete event); load the
// file in chrome://tracing or ui.perfetto.dev.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the recorded spans as a trace-event JSON array, one
// track per stream (track 0 holds the run and replay roots).
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[\n")
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := traceEvent{Name: s.Name, Cat: "bench", Ph: "X", TS: us(s.Start), Dur: us(s.dur()),
			PID: 1, TID: s.Stream + 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "stream": s.Stream, "seq": s.Seq}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- layer replay -----------------------------------------------------

// replayResult is the cascade run layer by layer, outside the pipeline.
type replayResult struct {
	Root         int // the replay's root span
	Stages       [5]int64
	Dispositions [][]pipeline.Disposition
}

// replay pushes the workload's own streams (same camera, same seeds,
// fresh filter instances) sequentially through SDD.Process →
// SNM.ProcessBatch (batches of at most batch) → TYolo.Process →
// Oracle.Detect, one span per call. Every filter's state is per stream
// and sees its frames in sequence order both here and in the pipeline,
// so stage counts and per-frame dispositions must match the pipeline's.
func (tr *tracing) replay(cam *lab.Camera, clips []int64, frames, batch int) replayResult {
	specs := mint(cam, clips, frames, detect.NewTinyGrid(detect.DefaultTinyGridConfig()), nil)
	oracle := detect.NewOracle(detect.DefaultOracleConfig())
	res := replayResult{Dispositions: make([][]pipeline.Disposition, len(clips))}
	root := tr.begin(spanReplay)
	res.Root = root
	for si, spec := range specs {
		disp := make([]pipeline.Disposition, frames)
		flush := func(pending []*frame.Frame) {
			if len(pending) == 0 {
				return
			}
			t := wallNow()
			verdicts := spec.SNM.ProcessBatch(pending)
			tr.add(spanSNM, t, spec.ID, pending[0].Seq)
			res.Stages[2] += int64(len(pending))
			for i, f := range pending {
				disp[f.Seq] = replayTail(tr, spec, oracle, f, verdicts[i], &res.Stages)
				f.Release()
			}
		}
		var pending []*frame.Frame
		for i := 0; i < frames; i++ {
			f := spec.Source.Next()
			f.StreamID = spec.ID
			res.Stages[0]++
			t := wallNow()
			v := spec.SDD.Process(f)
			tr.add(spanSDD, t, spec.ID, f.Seq)
			res.Stages[1]++
			if v == filters.Drop {
				disp[f.Seq] = pipeline.DropSDD
				f.Release()
				continue
			}
			pending = append(pending, f)
			if len(pending) == batch {
				flush(pending)
				pending = pending[:0]
			}
		}
		flush(pending)
		res.Dispositions[si] = disp
	}
	tr.end(root)
	return res
}

// replayTail carries one SNM-decided frame through T-YOLO and the
// reference detector and returns its disposition.
func replayTail(tr *tracing, spec pipeline.StreamSpec, oracle *detect.Oracle, f *frame.Frame, snm filters.Verdict, stages *[5]int64) pipeline.Disposition {
	if snm == filters.Drop {
		return pipeline.DropSNM
	}
	t := wallNow()
	v := spec.TYolo.Process(f)
	tr.add(spanTYolo, t, spec.ID, f.Seq)
	stages[3]++
	if v == filters.Drop {
		return pipeline.DropTYolo
	}
	t = wallNow()
	oracle.Detect(f)
	tr.add(spanRef, t, spec.ID, f.Seq)
	stages[4]++
	return pipeline.Detected
}
