// Package frame defines the video-frame representation shared by every
// stage of FFS-VA: pixel buffer, capture metadata, and (for synthetic
// workloads) embedded ground-truth annotations used for training and for
// accuracy accounting.
package frame

import (
	"fmt"
	"slices"
	"time"

	"ffsva/internal/par"
	"ffsva/internal/trace"
)

// Class identifies the kind of object a detector can report. The synthetic
// workloads use Car and Person, matching the paper's Jackson and Coral
// videos; the remaining classes exist so the shared T-YOLO substitute is a
// multi-class ("generic") model as in the paper.
type Class int

// Object classes recognized by the generic detector.
const (
	ClassNone Class = iota
	ClassCar
	ClassPerson
	ClassBus
	ClassTruck
	ClassBicycle
	ClassDog
	ClassCat
	numClasses
)

// NumClasses is the number of distinct detectable classes (excluding
// ClassNone).
const NumClasses = int(numClasses) - 1

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassCar:
		return "car"
	case ClassPerson:
		return "person"
	case ClassBus:
		return "bus"
	case ClassTruck:
		return "truck"
	case ClassBicycle:
		return "bicycle"
	case ClassDog:
		return "dog"
	case ClassCat:
		return "cat"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Box is an axis-aligned bounding box in pixel coordinates, describing one
// object instance in a frame.
type Box struct {
	X, Y, W, H int
	Class      Class
	// Visible is the fraction of the object's area inside the frame,
	// in (0,1]. Values below 1 mark partial appearances (e.g. a vehicle
	// entering the scene), which the paper identifies as a systematic
	// false-negative source for T-YOLO.
	Visible float64
}

// Area returns the box area in pixels.
func (b Box) Area() int { return b.W * b.H }

// Candidate is one detector proposal carried alongside a frame through
// the tail of the cascade: T-YOLO's candidate boxes, scaled to frame
// coordinates, feed the reference tier's object-level consolidation
// (crop-and-pack). It lives here rather than in detect so the pipeline
// and imgproc can consume it without an import cycle.
type Candidate struct {
	X, Y, W, H int
	Class      Class
	Conf       float64
}

// Rect clamps the candidate box, grown by pad on every side, to the
// given frame bounds. A candidate that clamps to an empty rectangle
// returns ok=false.
func (c Candidate) Rect(pad, frameW, frameH int) (x, y, w, h int, ok bool) {
	x0, y0 := c.X-pad, c.Y-pad
	x1, y1 := c.X+c.W+pad, c.Y+c.H+pad
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > frameW {
		x1 = frameW
	}
	if y1 > frameH {
		y1 = frameH
	}
	if x1 <= x0 || y1 <= y0 {
		return 0, 0, 0, 0, false
	}
	return x0, y0, x1 - x0, y1 - y0, true
}

// Annotation is ground truth attached to synthetic frames. It is consumed
// only by the reference-model oracle, the trainer, and accuracy
// accounting — never by the filters under test.
type Annotation struct {
	// Boxes lists visible object instances.
	Boxes []Box
	// SceneID groups consecutive frames belonging to one target-object
	// scene (a maximal run of frames containing at least one target
	// object). Zero means no active scene.
	SceneID int64
	// Lum is the global illumination offset applied to this frame,
	// recorded so tests can correlate light drift with SDD behavior.
	Lum float64
}

// TargetCount returns how many boxes of class c the annotation holds.
func (a *Annotation) TargetCount(c Class) int {
	if a == nil {
		return 0
	}
	n := 0
	for _, b := range a.Boxes {
		if b.Class == c {
			n++
		}
	}
	return n
}

// Frame is a single captured video frame. Pixels are 8-bit grayscale in
// row-major order; the synthetic pipeline operates on luminance only,
// which is all the paper's filters consume.
type Frame struct {
	StreamID int
	Seq      int64
	// Captured is the clock timestamp at which the prefetcher emitted
	// the frame; end-to-end latency is measured from it.
	Captured time.Duration
	W, H     int
	// Pix is nil on a frame captured but not drawn yet (NewCaptured);
	// Draw fills it.
	Pix []uint8
	// Truth carries ground-truth annotations on synthetic frames; nil on
	// frames from unknown sources.
	Truth *Annotation
	// Trace is the frame's span record when tracing is on; nil (the
	// common case) costs each instrumented stage one pointer check. The
	// pipeline's terminal point hands it back to the tracer.
	Trace *trace.FrameTrace
	// Cands are T-YOLO's candidate boxes in frame coordinates, filled
	// at the third filter when the reference tier runs in consolidation
	// mode (a frame the filter drops retires with them); empty
	// otherwise. A recycled header keeps the slice's capacity for its
	// next frame.
	Cands []Candidate
	// rec is a captured frame's capture record (NewCaptured): it paints
	// Pix on the first Draw, Truth may point into it, and it goes back
	// to its owner at Release. It is nil on every other frame.
	rec Drawer
	// Corrupt marks a frame whose payload was damaged in transit (fault
	// injection): the pipeline rejects it before filtering rather than
	// feeding garbage to the cascade, and so never draws a captured one.
	Corrupt bool
	// pooled marks a frame of the pools (NewPooled, NewCaptured): its
	// header came from the header list and its Pix, once it has one,
	// from the plane pool, and Release returns both.
	pooled bool
}

// Drawer paints a captured frame. Draw must write every pixel of pix, a
// W×H plane whose previous contents are arbitrary, and must not keep
// it. A Drawer is the frame's self-contained record of what was
// captured, so it may be asked to draw long after the capture, in any
// order relative to its stream's other frames, more than once (a Clone
// of an undrawn frame draws its own plane), and never. The frame's
// Release calls Recycle once the frame is done with the record, which
// hands it back to whoever made it; Draw is not called after that.
type Drawer interface {
	Draw(pix []uint8)
	Recycle()
}

// New allocates a zeroed frame of the given dimensions.
func New(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// NewCaptured returns a W×H frame whose content is decided but whose
// pixels are not drawn: it holds d, not a plane, until Draw. A source
// that captures this way costs a parked frame its capture record
// instead of its pixels. The header comes from a free list and goes
// back there at Release, and d is recycled with it, so a warm capture
// allocates nothing.
func NewCaptured(w, h int, d Drawer) *Frame {
	f := headers.Get()
	f.W, f.H, f.rec, f.pooled = w, h, d, true
	return f
}

// Draw gives a captured frame its pixels: a plane borrowed from the
// frame-buffer pool, painted by the frame's Drawer. It is a no-op on a
// frame that has its pixels already and on a released one, so every
// consumer that reads pixels may call it unconditionally. The plane
// goes back to the pool with Release, as for NewPooled.
func (f *Frame) Draw() {
	if f.rec == nil || f.Pix != nil {
		return
	}
	f.Pix = pixPool.Get(f.W * f.H)
	f.rec.Draw(f.Pix)
}

// pixPool recycles pixel planes across pooled frames, bucketed by exact
// length: every stream of a workload renders the same resolution, and a
// process that mixes resolutions keeps one free list per plane size.
var pixPool par.SlicePool[uint8]

// headers recycles the headers of pooled frames. A header is on the
// list only between its frame's Release and the next NewPooled or
// NewCaptured; New and Clone headers are never filed, so a frame that
// escaped the pipeline that way stays its holder's.
var headers par.FreeList[Frame]

// PoolStats returns the cumulative pooled-frame acquisition and return
// counts, so tests can assert the get/put balance across a run: a frame
// path that skips Release shows up as a persistent gets-puts surplus.
// The pool is process-global, so callers compare deltas around the
// region under test rather than absolute values.
func PoolStats() (gets, puts int64) { return pixPool.Stats() }

// HeaderStats is PoolStats for the headers of pooled frames: a
// NewPooled or NewCaptured is a get, its frame's Release a put.
func HeaderStats() (gets, puts int64) { return headers.Stats() }

// NewPooled returns a frame whose header and pixel plane are borrowed
// from the frame pools. The plane is NOT cleared — it holds whatever
// the previous user left — so NewPooled is for producers that overwrite
// every pixel. Callers that cannot guarantee a full overwrite must use
// New. The pipeline calls Release once the frame's verdict is final.
func NewPooled(w, h int) *Frame {
	f := headers.Get()
	f.W, f.H, f.Pix, f.pooled = w, h, pixPool.Get(w*h), true
	return f
}

// Release is a frame's terminal point. On a pooled frame (NewPooled,
// NewCaptured) it returns the pixel plane, if the frame has one, hands
// a capture record back, clears every field — Truth, which may point
// into the record, included — and files the header for the next pooled
// frame. It is a no-op on any other frame (tests and external sources
// build frames with New and keep owning them), so the pipeline can
// release every frame it retires unconditionally. Whatever must outlive
// the frame is copied out first (the pipeline's Record copies the truth
// it keeps by value). After Release the frame must not be used at all.
func (f *Frame) Release() {
	if f == nil || !f.pooled {
		return
	}
	if f.Pix != nil {
		pixPool.Put(f.Pix)
	}
	if f.rec != nil {
		f.rec.Recycle()
	}
	*f = Frame{Cands: f.Cands[:0]}
	headers.Put(f)
}

// At returns the pixel at (x, y). It performs no bounds checking beyond
// the slice's own.
func (f *Frame) At(x, y int) uint8 { return f.Pix[y*f.W+x] }

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v uint8) { f.Pix[y*f.W+x] = v }

// Clone returns a deep copy of the frame, including annotations and
// candidates. It shares nothing with f: the clone of a captured frame
// not yet drawn is drawn into a plane of its own at once, since f's
// capture record is recycled when f is released.
func (f *Frame) Clone() *Frame {
	g := *f
	g.pooled = false // the clone owns its header and a private buffer
	g.Trace = nil    // the span record stays with the original's journey
	g.rec = nil
	g.Cands = slices.Clone(f.Cands)
	if f.Pix != nil {
		g.Pix = slices.Clone(f.Pix)
	} else if f.rec != nil {
		g.Pix = make([]uint8, f.W*f.H)
		f.rec.Draw(g.Pix)
	}
	if f.Truth != nil {
		t := *f.Truth
		t.Boxes = slices.Clone(f.Truth.Boxes)
		g.Truth = &t
	}
	return &g
}

// String summarizes the frame for logs.
func (f *Frame) String() string {
	return fmt.Sprintf("frame{stream=%d seq=%d %dx%d}", f.StreamID, f.Seq, f.W, f.H)
}
