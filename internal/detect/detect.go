// Package detect provides the two object detectors FFS-VA relies on:
//
//   - TinyGrid substitutes for Tiny-YOLO-Voc (T-YOLO, paper §3.2.3): a
//     generic, multi-class, grid-based detector shared by all streams. It
//     divides the input into the same 13×13 grid with at most 5 boxes per
//     cell, counts target objects, and — deliberately — reproduces
//     T-YOLO's systematic weaknesses the paper reports: partially visible
//     objects at frame edges are misclassified or rejected, and dense
//     crowds of small objects merge and undercount.
//
//   - Oracle substitutes for the full-feature reference model (YOLOv2):
//     it reads the synthetic ground truth with a small deterministic miss
//     rate. The paper uses YOLOv2 both as accuracy ground truth and as a
//     fixed per-frame GPU cost; detection quality of YOLOv2 itself is not
//     under evaluation, so an oracle preserves both roles.
package detect

import (
	"bytes"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
)

// Detection is one detected object instance.
type Detection struct {
	Box   imgproc.Rect
	Class frame.Class
	Conf  float64
}

// Detector locates object instances in a frame.
type Detector interface {
	Detect(f *frame.Frame) []Detection
}

// An Appender is a Detector that can write its detections into a slice
// the caller owns, so a caller that reuses one allocates nothing per
// frame. Every detector in this package is one.
type Appender interface {
	Detector
	// AppendDetect appends what Detect would return for f to dst and
	// returns the extended slice.
	AppendDetect(dst []Detection, f *frame.Frame) []Detection
}

// AppendDetect appends d's detections in f to dst: in place when d is
// an Appender, else by copying what Detect returns.
func AppendDetect(dst []Detection, d Detector, f *frame.Frame) []Detection {
	if a, ok := d.(Appender); ok {
		return a.AppendDetect(dst, f)
	}
	return append(dst, d.Detect(f)...)
}

// Count returns how many detections of class c have confidence of at
// least confThresh (the paper uses 0.2 for T-YOLO).
func Count(dets []Detection, c frame.Class, confThresh float64) int {
	n := 0
	for _, d := range dets {
		if d.Class == c && d.Conf >= confThresh {
			n++
		}
	}
	return n
}

// GridSize is the detection grid dimension used by T-YOLO (13×13 cells).
const GridSize = 13

// MaxBoxesPerCell bounds predictions per grid cell, as in T-YOLO.
const MaxBoxesPerCell = 5

// TinyGridConfig tunes the TinyGrid detector.
type TinyGridConfig struct {
	// InputSize is the square side the frame is resized to before
	// detection. The paper uses 416; the default here is 208, which
	// preserves the 13×13 grid geometry at one quarter the pixel cost.
	InputSize int
	// DiffThresh is the foreground binarization threshold in gray
	// levels.
	DiffThresh uint8
	// MinArea is the minimum component area (at InputSize scale) kept as
	// a detection; smaller blobs are noise or sub-detectable objects.
	MinArea int
	// BGAlpha is the per-frame background EMA update rate.
	BGAlpha float64
	// ConfNorm is the mean-foreground-difference value mapped to
	// confidence 1.0.
	ConfNorm float64
}

// DefaultTinyGridConfig returns the configuration used across the
// evaluation.
func DefaultTinyGridConfig() TinyGridConfig {
	return TinyGridConfig{
		InputSize:  208,
		DiffThresh: 22,
		MinArea:    30,
		BGAlpha:    0.04,
		ConfNorm:   45,
	}
}

// TinyGrid is the shared generic detector. It keeps a per-stream running
// background estimate (fixed-viewpoint assumption, as in the paper) and
// detects objects as foreground components classified by geometry.
//
// TinyGrid is safe for concurrent use across distinct streams: with
// multiple filter GPUs the pipeline runs one T-YOLO worker per GPU, each
// serving a disjoint stream partition, so a mutex guards only the shared
// background map, the free list and the seed memo.
type TinyGrid struct {
	cfg TinyGridConfig
	mu  sync.Mutex
	bg  map[int]*bgState
	// free holds the states of departed streams, which the next streams
	// registered here overwrite instead of allocating their own. It has
	// no cap: it never holds more than the detector's peak of live
	// streams, which it held already. Its capacity covers every state
	// the detector made, so Unregister never allocates.
	free []*bgState
	made int // states ever allocated: len(bg) + len(free)
	// seeds holds the most recent backgrounds SetBackground was given,
	// already at detector scale, oldest first: the streams of one camera
	// all start from the same image, so it is resampled once per
	// detector, not once per stream.
	seeds []bgSeed
}

type bgState struct {
	ema    []float64 // background estimate at InputSize scale
	frames int
	// comps is the stream's component list, refilled by every visit; a
	// stream's frames are detected one at a time, so it needs no lock.
	comps []imgproc.Component
}

// bgSeed is one known background and the EMA a stream seeded from it
// starts with. Both are written once and then only read. src is the
// detector's own copy of the plane, so a seed is found again by the
// plane's contents and callers stay free to reuse or share theirs.
type bgSeed struct {
	src *imgproc.Gray
	ema []float64
}

// maxSeeds bounds the seed memo (0.4 MB an entry at the default scales);
// an instance serving more viewpoints than this resamples on the misses.
const maxSeeds = 8

// NewTinyGrid creates a detector with the given configuration.
func NewTinyGrid(cfg TinyGridConfig) *TinyGrid {
	if cfg.InputSize <= 0 {
		cfg = DefaultTinyGridConfig()
	}
	return &TinyGrid{cfg: cfg, bg: make(map[int]*bgState)}
}

// Unregister releases a stream's background state to the detector's
// free list, for the next stream registered here. The pipeline calls
// it once every fragment of the stream on an instance has drained — at
// a finished stream's last verdict, and likewise where a stream
// migrated away, crashed or was cancelled — without it every finished
// stream, and every re-forward, would leak the stream's background
// model into the detector forever. It must not run while the stream
// still has in-flight frames here: Detect would lazily re-create the
// state from the next frame.
func (t *TinyGrid) Unregister(streamID int) {
	t.mu.Lock()
	if st, ok := t.bg[streamID]; ok {
		delete(t.bg, streamID)
		t.free = append(t.free, st)
	}
	t.mu.Unlock()
}

// States reports how many background states the detector has
// allocated and how many of them wait on its free list; the rest
// belong to registered streams.
func (t *TinyGrid) States() (made, free int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.made, len(t.free)
}

// registerLocked returns the state streamID is to be seeded into: its
// own when it is registered, else a departed stream's from the free
// list, else a new one of n elements. Its estimate and history are
// stale, so the caller overwrites every element of ema and sets frames;
// comps is refilled by every visit anyway. t.mu must be held.
func (t *TinyGrid) registerLocked(streamID, n int) *bgState {
	if st, ok := t.bg[streamID]; ok {
		return st
	}
	var st *bgState
	if k := len(t.free); k > 0 {
		st = t.free[k-1]
		t.free[k-1] = nil
		t.free = t.free[:k-1]
	} else {
		st = &bgState{ema: make([]float64, n)}
		t.made++
		// Reserve the list's room for every state made, so that the
		// Unregister of each allocates nothing.
		t.free = slices.Grow(t.free, t.made-len(t.free))
	}
	t.bg[streamID] = st
	return st
}

// InputSize returns the square side the detector resizes frames to
// before detecting: its Detection boxes are at this scale, not the
// frame's. Consumers that need frame coordinates (the reference tier's
// crop-and-pack consolidation) rescale with it.
func (t *TinyGrid) InputSize() int { return t.cfg.InputSize }

// Registered reports whether a background model is held for the stream.
func (t *TinyGrid) Registered(streamID int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.bg[streamID]
	return ok
}

// SetBackground seeds the background model for a stream from a known
// background image (the trainer does this from labeled background
// frames, mirroring how the paper trains stream-specialized models).
// The stream gets an estimate of its own — Detect adapts it — copied
// from the image's resample into the stream's state if it is
// registered (a stream re-forwarded back here), else into a departed
// stream's, else into a new one; bg is only read, and not kept.
func (t *TinyGrid) SetBackground(streamID int, bg *imgproc.Gray) {
	t.mu.Lock()
	seed := t.seedForLocked(bg)
	st := t.registerLocked(streamID, len(seed))
	t.mu.Unlock()
	copy(st.ema, seed)
	st.frames = 1000
}

// seedForLocked returns the detector-scale float64 image of bg,
// resampling it unless a plane with the same pixels was seen recently.
// t.mu must be held.
func (t *TinyGrid) seedForLocked(bg *imgproc.Gray) []float64 {
	for _, s := range t.seeds {
		if s.src.W == bg.W && s.src.H == bg.H && bytes.Equal(s.src.Pix, bg.Pix) {
			return s.ema
		}
	}
	small := imgproc.Resize(bg, t.cfg.InputSize, t.cfg.InputSize)
	ema := make([]float64, len(small.Pix))
	for i, p := range small.Pix {
		ema[i] = float64(p)
	}
	if len(t.seeds) == maxSeeds {
		t.seeds = append(t.seeds[:0], t.seeds[1:]...)
	}
	t.seeds = append(t.seeds, bgSeed{src: bg.Clone(), ema: ema})
	return ema
}

// Detect implements Detector; see AppendDetect.
func (t *TinyGrid) Detect(f *frame.Frame) []Detection { return t.AppendDetect(nil, f) }

// AppendDetect implements Appender. The per-pixel stages — resize,
// foreground difference, background EMA, blur, binarize — carry the
// work; component labeling and classification are a tiny fraction of
// it. Scratch images come from the image pool and the component list
// is the stream's, so a warm detector allocates nothing beyond what
// dst must grow by.
func (t *TinyGrid) AppendDetect(dst []Detection, f *frame.Frame) []Detection {
	size := t.cfg.InputSize
	small := imgproc.GetGray(size, size)
	defer small.Release()
	imgproc.ResizeInto(imgproc.FromFrame(f), small)

	t.mu.Lock()
	st, ok := t.bg[f.StreamID]
	if !ok {
		st = t.registerLocked(f.StreamID, len(small.Pix))
		for i, p := range small.Pix {
			st.ema[i] = float64(p)
		}
		st.frames = 0
	}
	t.mu.Unlock()

	// Foreground difference against the running background, fused with
	// the background EMA update: both walk the same pixels. Warmup
	// adapts faster so a cold detector converges.
	alpha := t.cfg.BGAlpha
	if st.frames < 50 {
		alpha = 0.15
	}
	st.frames++
	diff := imgproc.GetGray(size, size)
	defer diff.Release()
	diffAndAdapt(small.Pix, st.ema, diff.Pix, alpha)

	blur := imgproc.GetGray(size, size)
	imgproc.BoxBlur3Into(diff, blur)
	mask := imgproc.GetGray(size, size)
	imgproc.BinarizeInto(blur, t.cfg.DiffThresh, mask)
	blur.Release()
	defer mask.Release()
	st.comps = imgproc.ConnectedComponents(st.comps[:0], mask, t.cfg.MinArea)

	var cellCount [GridSize * GridSize]uint8
	for _, c := range st.comps {
		d, ok := t.classify(c, diff, size)
		if !ok {
			continue
		}
		// Grid-cell cap: at most MaxBoxesPerCell detections whose box
		// center falls in one of the 13×13 cells.
		cx := (c.Rect.X + c.Rect.W/2) * GridSize / size
		cy := (c.Rect.Y + c.Rect.H/2) * GridSize / size
		cell := cy*GridSize + cx
		if cellCount[cell] >= MaxBoxesPerCell {
			continue
		}
		cellCount[cell]++
		dst = append(dst, d)
	}
	return dst
}

// diffAndAdapt writes out[i] = min(|pix[i] − ema[i]|, 255) and moves
// ema[i] toward pix[i] by alpha, over three planes of one length. The
// float64 operations and their order are frozen — the background a
// stream accumulates, and with it every later detection, is a function
// of these bits. The magnitude is taken with math.Abs, not a branch:
// on a background pixel the sign of the difference is sensor noise,
// which no predictor learns.
func diffAndAdapt(pix []uint8, ema []float64, out []uint8, alpha float64) {
	ema, out = ema[:len(pix)], out[:len(pix)]
	for i, b := range pix {
		p := float64(b)
		e := ema[i]
		d := math.Abs(p - e)
		if d > 255 {
			d = 255
		}
		out[i] = uint8(d)
		ema[i] = e + alpha*(p-e)
	}
}

// rectSum returns the sum of g's pixels inside r, which must lie within
// the image.
func rectSum(g *imgproc.Gray, r imgproc.Rect) uint64 {
	var sum uint64
	for y := r.Y; y < r.Y+r.H; y++ {
		for _, p := range g.Pix[y*g.W+r.X : y*g.W+r.X+r.W] {
			sum += uint64(p)
		}
	}
	return sum
}

// classify maps a foreground component to a class by its geometry, and
// scores confidence from foreground contrast. Edge-touching (partially
// visible) components are penalized: this is the mechanism that
// reproduces T-YOLO's partial-appearance false negatives.
func (t *TinyGrid) classify(c imgproc.Component, diff *imgproc.Gray, size int) (Detection, bool) {
	r := c.Rect
	aspect := float64(r.W) / float64(r.H)
	fill := float64(c.Pixels) / float64(r.Area())

	meanDiff := float64(rectSum(diff, r)) / float64(r.Area())
	conf := meanDiff / t.cfg.ConfNorm
	if conf > 1 {
		conf = 1
	}
	// Low fill = fragmented blob; damp confidence.
	conf *= 0.5 + 0.5*fill

	touchesEdge := r.X == 0 || r.Y == 0 || r.X+r.W >= size || r.Y+r.H >= size

	var class frame.Class
	switch {
	case aspect >= 3.4:
		class = frame.ClassBus
	case aspect >= 1.15:
		if r.H >= size/16 {
			class = frame.ClassCar
		} else {
			class = frame.ClassDog
		}
	case aspect <= 0.8:
		if r.H >= size/24 {
			class = frame.ClassPerson
		} else {
			class = frame.ClassCat
		}
	default:
		// Near-square blobs: small ones are animals, large ones default
		// to car (front/back views).
		if r.Area() >= size*size/64 {
			class = frame.ClassCar
		} else {
			class = frame.ClassDog
		}
	}

	if touchesEdge {
		// A partially visible object has distorted geometry; a generic
		// small model loses confidence on it. A wide object that has
		// lost its distinguishing aspect ratio (e.g. a car 40% visible
		// looks square) is additionally likely misclassified, which the
		// geometry rules above already capture.
		conf *= 0.45
	}
	if conf < 0.05 {
		return Detection{}, false
	}
	return Detection{Box: r, Class: class, Conf: conf}, true
}

// OracleConfig tunes the reference-model oracle.
type OracleConfig struct {
	// MissRate is the deterministic pseudo-random fraction of true
	// objects the reference model fails to report (YOLOv2 is good but
	// not perfect).
	MissRate float64
	// MinVisible is the minimum visible fraction the reference model can
	// still detect. The paper notes YOLOv2 detects partial vehicles that
	// T-YOLO misses, so this is small.
	MinVisible float64
}

// DefaultOracleConfig returns the reference-model configuration used
// across the evaluation.
func DefaultOracleConfig() OracleConfig {
	return OracleConfig{MissRate: 0.005, MinVisible: 0.15}
}

// Oracle is the reference-model stand-in. It requires frames carrying
// ground truth.
type Oracle struct {
	cfg OracleConfig
}

// NewOracle creates an oracle detector.
func NewOracle(cfg OracleConfig) *Oracle { return &Oracle{cfg: cfg} }

// Detect implements Detector; see AppendDetect.
func (o *Oracle) Detect(f *frame.Frame) []Detection {
	if f.Truth == nil {
		return nil
	}
	return o.AppendDetect(make([]Detection, 0, len(f.Truth.Boxes)), f)
}

// AppendDetect implements Appender from ground truth, with a
// deterministic per-object miss rate.
func (o *Oracle) AppendDetect(dst []Detection, f *frame.Frame) []Detection {
	return appendTruth(dst, f, o.cfg, 0, 0.99)
}

// appendTruth appends f's true boxes that are at least cfg.MinVisible
// visible and not missed — a deterministic draw against cfg.MissRate,
// keyed by the stream ID XOR salt — as detections of confidence conf.
func appendTruth(dst []Detection, f *frame.Frame, cfg OracleConfig, salt int, conf float64) []Detection {
	if f.Truth == nil {
		return dst
	}
	for i, b := range f.Truth.Boxes {
		if b.Visible < cfg.MinVisible {
			continue
		}
		if cfg.MissRate > 0 && hash01(f.StreamID^salt, f.Seq, i) < cfg.MissRate {
			continue
		}
		dst = append(dst, Detection{
			Box:   imgproc.Rect{X: b.X, Y: b.Y, W: b.W, H: b.H},
			Class: b.Class,
			Conf:  conf,
		})
	}
	return dst
}

// Compressed is the §5.5 remedy for T-YOLO's error rate: a deeply
// compressed high-precision model (pruning + sparsity, as in EIE) that
// keeps near-reference accuracy at roughly T-YOLO's speed. It is a
// drop-in replacement for TinyGrid in the third filter stage; its service
// time is charged as the T-YOLO model, so swapping it trades nothing but
// the (large) training/compression effort the paper assumes.
//
// Like the reference model it is oracle-backed (detection quality of the
// compressed network is not what the reproduction evaluates); unlike the
// reference it retains a slightly higher miss rate and loses objects
// below a larger visibility floor.
type Compressed struct {
	cfg OracleConfig
}

// NewCompressed returns the compressed detector with its calibrated
// error profile (≈3× the reference model's miss rate, visibility floor
// 0.25 vs the reference's 0.15).
func NewCompressed() *Compressed {
	return &Compressed{cfg: OracleConfig{MissRate: 0.015, MinVisible: 0.25}}
}

// Detect implements Detector; see AppendDetect.
func (c *Compressed) Detect(f *frame.Frame) []Detection {
	if f.Truth == nil {
		return nil
	}
	return c.AppendDetect(make([]Detection, 0, len(f.Truth.Boxes)), f)
}

// AppendDetect implements Appender. The hash is salted so the
// compressed model's misses do not coincide with the reference model's.
func (c *Compressed) AppendDetect(dst []Detection, f *frame.Frame) []Detection {
	return appendTruth(dst, f, c.cfg, 0x7c, 0.9)
}

// hash01 maps (stream, seq, idx) to a deterministic value in [0, 1).
func hash01(stream int, seq int64, idx int) float64 {
	h := fnv.New64a()
	var buf [20]byte
	buf[0] = byte(stream)
	buf[1] = byte(stream >> 8)
	for i := 0; i < 8; i++ {
		buf[2+i] = byte(seq >> (8 * i))
	}
	buf[10] = byte(idx)
	h.Write(buf[:])
	return float64(h.Sum64()%1_000_000) / 1_000_000
}
