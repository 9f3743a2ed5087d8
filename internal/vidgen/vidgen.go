// Package vidgen synthesizes deterministic surveillance-style video
// streams with embedded ground truth. It substitutes for the paper's
// Jackson and Coral evaluation videos (Table 1), which cannot be shipped:
// the generator reproduces the statistical structure FFS-VA's filters
// depend on — a fixed-viewpoint background with slow illumination drift
// and sensor noise, rare target-object scenes of contiguous frames,
// partial appearances at frame edges, objects that stop and wait
// mid-scene, and dense crowds whose members merge at detector resolution.
//
// The target-object ratio (TOR, paper Eq. 1) is a controlled input: a
// closed-loop scheduler adjusts inter-scene gaps so the realized TOR
// converges to the configured target, which is exactly the knob the
// paper's evaluation sweeps.
package vidgen

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/par"
)

// Config describes one synthetic stream.
type Config struct {
	Seed int64
	// BGSeed selects the background (the "camera viewpoint")
	// independently of Seed, which drives object dynamics. Streams with
	// equal BGSeed share a background, mirroring the paper's method of
	// extracting multiple non-overlapping clips from one video; zero
	// means "derive from Seed".
	BGSeed   int64
	StreamID int
	W, H     int
	FPS      int
	// Target is the user-defined target-object class for this stream.
	Target frame.Class
	// TOR is the desired fraction of frames containing at least one
	// target object, in [0, 1].
	TOR float64
	// MeanSceneFrames is the mean length of a target-object scene.
	MeanSceneFrames int
	// MaxObjects bounds concurrent target objects in an ordinary scene.
	MaxObjects int
	// CrowdProb is the probability a scene is a dense crowd of small
	// targets (several overlapping objects, as in the Coral video).
	CrowdProb float64
	// CrowdSize is the number of objects in a crowd scene.
	CrowdSize int
	// StopProb is the probability a target pauses soon after entering,
	// while still partially outside the frame — the paper's
	// "vehicle waiting at a traffic light" false-negative source.
	StopProb float64
	// StopFrames is the mean pause length in frames.
	StopFrames int
	// DistractorProb is the per-spawn probability of an additional
	// non-target moving object (detectable motion that SNM must reject).
	DistractorProb float64
	// LightAmp and LightPeriod define sinusoidal illumination drift
	// (levels of gray, frames per cycle). Zero amplitude disables it.
	LightAmp    float64
	LightPeriod int
	// NoiseAmp is the peak-to-peak sensor noise in gray levels.
	NoiseAmp int
	// MinSizeFrac and MaxSizeFrac bound target height as a fraction of
	// the frame height.
	MinSizeFrac, MaxSizeFrac float64
	// SceneSwitchFrame, when positive, replaces the background at that
	// frame index with one derived from SceneSwitchBGSeed — the paper's
	// §5.5 "function and position of the camera have changed" case that
	// invalidates the stream-specialized models.
	SceneSwitchFrame  int
	SceneSwitchBGSeed int64
}

// Jackson returns a preset mirroring the paper's Jackson workload
// (Table 1): a 600×400 crossroad stream whose target is cars with
// TOR 0.08.
func Jackson(seed int64) Config {
	return Config{
		Seed: seed, W: 600, H: 400, FPS: 30,
		Target: frame.ClassCar, TOR: 0.08,
		MeanSceneFrames: 90, MaxObjects: 3,
		CrowdProb: 0, CrowdSize: 0,
		StopProb: 0.15, StopFrames: 60,
		DistractorProb: 0.10,
		LightAmp:       8, LightPeriod: 3000,
		NoiseAmp:    4,
		MinSizeFrac: 0.18, MaxSizeFrac: 0.30,
	}
}

// Coral returns a preset mirroring the paper's Coral workload (Table 1):
// a 1280×720 aquarium stream whose target is persons with TOR 0.50 and
// frequent crowds.
func Coral(seed int64) Config {
	return Config{
		Seed: seed, W: 1280, H: 720, FPS: 30,
		Target: frame.ClassPerson, TOR: 0.50,
		MeanSceneFrames: 150, MaxObjects: 4,
		CrowdProb: 0.5, CrowdSize: 9,
		StopProb: 0.05, StopFrames: 45,
		DistractorProb: 0.05,
		LightAmp:       5, LightPeriod: 5000,
		NoiseAmp:    4,
		MinSizeFrac: 0.10, MaxSizeFrac: 0.20,
	}
}

// Small returns a compact preset (320×240) with the given target and TOR,
// used by tests and the benchmark harness where capture resolution is
// irrelevant (every filter resizes its input anyway, as in the paper).
func Small(seed int64, target frame.Class, tor float64) Config {
	c := Config{
		Seed: seed, W: 320, H: 240, FPS: 30,
		Target: target, TOR: tor,
		MeanSceneFrames: 60, MaxObjects: 3,
		StopProb: 0.12, StopFrames: 45,
		DistractorProb: 0.08,
		LightAmp:       6, LightPeriod: 2000,
		NoiseAmp:    4,
		MinSizeFrac: 0.18, MaxSizeFrac: 0.30,
	}
	if target == frame.ClassPerson {
		c.CrowdProb = 0.5
		c.CrowdSize = 8
		c.MinSizeFrac, c.MaxSizeFrac = 0.12, 0.2
	}
	return c
}

func (c *Config) validate() error {
	switch {
	case c.W <= 0 || c.H <= 0:
		return fmt.Errorf("vidgen: invalid frame size %dx%d", c.W, c.H)
	case c.TOR < 0 || c.TOR > 1:
		return fmt.Errorf("vidgen: TOR %v out of [0,1]", c.TOR)
	case c.Target == frame.ClassNone:
		return fmt.Errorf("vidgen: target class unset")
	case c.MeanSceneFrames <= 0:
		return fmt.Errorf("vidgen: MeanSceneFrames must be positive")
	}
	return nil
}

// object is one moving thing in the world.
type object struct {
	class    frame.Class
	cx, cy   float64 // center
	w, h     int
	vx       float64
	stopLeft int // frames remaining stopped (0 = moving)
	stopAtX  float64
	willStop bool
	bright   int // brightness delta over background
}

// Stream generates the frames of one synthetic video stream. It is not
// safe for concurrent use; each pipeline stream owns one Stream.
type Stream struct {
	cfg Config
	rng *rand.Rand
	// bg is the viewpoint's plane, shared with every other stream of the
	// same (W, H, background seed) and never written: render copies out
	// of it, a scene switch replaces the pointer.
	bg *imgproc.Gray

	seq        int64
	frameIdx   int
	objects    []*object
	spare      []*object // departed objects, reused by newObject
	gapLeft    int       // frames until next scene while no scene pending
	sceneID    int64
	inScene    bool
	sceneStart int // frameIdx at which the current scene began
	// noiseState is the noise generator's state at the next frame;
	// noiseJump advances it past one frame's noise without drawing it.
	noiseState uint32
	noiseJump  *jump
	// maxObjects bounds how many objects the world holds at once — one
	// scene's, plus a distractor — and so how many boxes a frame shows.
	maxObjects int

	targetFrames int64 // frames emitted containing >=1 visible target
	totalFrames  int64
}

// New creates a stream; it panics if the configuration is invalid, since
// configs are produced by presets and tests, not end users.
func New(cfg Config) *Stream {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	s := &Stream{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		noiseState: uint32(cfg.Seed)*2654435761 + 1,
	}
	bgSeed := cfg.BGSeed
	if bgSeed == 0 {
		bgSeed = cfg.Seed
	}
	s.bg = background(cfg.W, cfg.H, bgSeed)
	if cfg.NoiseAmp > 0 {
		s.noiseJump = noiseJump(cfg.W * cfg.H)
	}
	s.maxObjects = max(cfg.MaxObjects, 1) + 1
	if cfg.CrowdProb > 0 && cfg.CrowdSize > 1 {
		s.maxObjects = max(s.maxObjects, cfg.CrowdSize+3)
	}
	s.gapLeft = s.initialGap()
	return s
}

// Config returns the stream's configuration.
func (s *Stream) Config() Config { return s.cfg }

// Background returns a copy of the true (noise-free, drift-free)
// background, for callers that want a plane of their own; it exists so
// tests and the SDD trainer can validate against ground truth.
func (s *Stream) Background() *imgproc.Gray { return s.bg.Clone() }

// SharedBackground returns the background plane itself, the one every
// stream of this viewpoint renders from, for callers that only read it
// (seeding a detector). It must not be written: a write would show in
// the frames of all of those streams.
func (s *Stream) SharedBackground() *imgproc.Gray { return s.bg }

// RealizedTOR reports the fraction of emitted frames that contained at
// least one visible target object.
func (s *Stream) RealizedTOR() float64 {
	if s.totalFrames == 0 {
		return 0
	}
	return float64(s.targetFrames) / float64(s.totalFrames)
}

// maxBackgrounds bounds the planes the background memo keeps (the
// largest preset's is 0.9 MB); past it the oldest entry leaves, and the
// streams that hold that plane keep it alive for as long as they run.
const maxBackgrounds = 16

type bgPlane struct {
	w, h  int
	seed  int64
	plane *imgproc.Gray
}

// backgrounds remembers the rendered plane of each recent viewpoint,
// oldest first. It is process-global because the plane is a pure
// function of (w, h, seed) and those are all that New is given: a
// stream's viewpoint is named by Config, not by an object its siblings
// could be handed.
var backgrounds struct {
	sync.Mutex
	planes []bgPlane
}

// background returns the viewpoint's shared read-only plane, rendering
// it on first use.
func background(w, h int, seed int64) *imgproc.Gray {
	b := &backgrounds
	b.Lock()
	defer b.Unlock()
	for _, p := range b.planes {
		if p.w == w && p.h == h && p.seed == seed {
			return p.plane
		}
	}
	g := makeBackground(w, h, seed)
	if len(b.planes) == maxBackgrounds {
		b.planes = append(b.planes[:0], b.planes[1:]...)
	}
	b.planes = append(b.planes, bgPlane{w, h, seed, g})
	return g
}

// makeBackground builds a deterministic fixed-viewpoint scene: smooth
// low-frequency structure (buildings/road bands) plus mild texture.
func makeBackground(w, h int, seed int64) *imgproc.Gray {
	rng := rand.New(rand.NewSource(seed ^ 0xb6))
	g := imgproc.NewGray(w, h)
	p1 := 37.0 + float64(rng.Intn(20))
	p2 := 23.0 + float64(rng.Intn(12))
	base := 100.0 + float64(rng.Intn(30))
	for y := 0; y < g.H; y++ {
		fy := float64(y)
		band := 20 * math.Sin(fy/p2)
		for x := 0; x < g.W; x++ {
			fx := float64(x)
			v := base + band + 15*math.Sin(fx/p1) + 8*math.Sin((fx+2*fy)/11)
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			g.Pix[y*g.W+x] = uint8(v)
		}
	}
	return g
}

func (s *Stream) initialGap() int {
	if s.cfg.TOR >= 0.999 {
		return 0
	}
	// Sample a uniform phase of the steady-state scene/gap cycle so a
	// short window is an unbiased TOR sample (a stream must not always
	// open with a scene, or short probes run far above the target TOR).
	expGap := float64(s.cfg.MeanSceneFrames) * (1/max(s.cfg.TOR, 0.001) - 1)
	if expGap > 200*float64(s.cfg.MeanSceneFrames) {
		expGap = 200 * float64(s.cfg.MeanSceneFrames)
	}
	return s.rng.Intn(int(expGap) + 1)
}

// nextGap draws the idle period after a scene so the realized TOR
// converges to the target: the open-loop expectation
// scene·(1/TOR − 1) is corrected by the observed error.
func (s *Stream) nextGap(sceneLen int) int {
	tor := s.cfg.TOR
	if tor >= 0.999 {
		return 0
	}
	if tor <= 0.001 {
		return sceneLen * 200
	}
	open := float64(sceneLen) * (1/tor - 1)
	// Closed-loop correction: if we are running hot (realized > target),
	// lengthen the gap, and vice versa.
	if s.totalFrames > int64(s.cfg.MeanSceneFrames)*4 {
		realized := float64(s.targetFrames) / float64(s.totalFrames)
		deficit := (realized - tor) * float64(s.totalFrames)
		open += deficit / tor
	}
	jitter := 0.7 + 0.6*s.rng.Float64()
	g := int(open * jitter)
	if g < 0 {
		g = 0
	}
	return g
}

// spawnScene creates the objects of a new scene, entering from a frame
// edge.
func (s *Stream) spawnScene() []*object {
	crowd := s.rng.Float64() < s.cfg.CrowdProb
	n := 1
	if crowd && s.cfg.CrowdSize > 1 {
		n = s.cfg.CrowdSize - 2 + s.rng.Intn(5)
	} else if s.cfg.MaxObjects > 1 {
		n = 1 + s.rng.Intn(s.cfg.MaxObjects)
	}
	objs := s.objects[:0] // the world is empty: reuse its array
	fromLeft := s.rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		objs = append(objs, s.newObject(s.cfg.Target, fromLeft, crowd))
	}
	if s.rng.Float64() < s.cfg.DistractorProb {
		objs = append(objs, s.newObject(s.distractorClass(), !fromLeft, false))
	}
	return objs
}

func (s *Stream) distractorClass() frame.Class {
	choices := []frame.Class{frame.ClassDog, frame.ClassCat, frame.ClassBicycle}
	return choices[s.rng.Intn(len(choices))]
}

// newObject creates an object just outside the frame moving across it.
func (s *Stream) newObject(class frame.Class, fromLeft, crowd bool) *object {
	hFrac := s.cfg.MinSizeFrac + s.rng.Float64()*(s.cfg.MaxSizeFrac-s.cfg.MinSizeFrac)
	h := int(hFrac * float64(s.cfg.H))
	if h < 4 {
		h = 4
	}
	var w int
	var bright int
	switch class {
	case frame.ClassCar:
		w = h*2 + s.rng.Intn(h/2+1) // wide
		bright = 55 + s.rng.Intn(30)
	case frame.ClassBus, frame.ClassTruck:
		w = h * 3
		bright = 60 + s.rng.Intn(30)
	case frame.ClassPerson:
		w = h*2/5 + 1 // narrow
		bright = 45 + s.rng.Intn(25)
		if crowd {
			h = h * 3 / 4 // crowds are small and far away
			w = h*2/5 + 1
		}
	default: // small distractors
		w = h / 2
		h = h / 2
		if w < 3 {
			w = 3
		}
		if h < 3 {
			h = 3
		}
		bright = 30 + s.rng.Intn(15)
	}
	if w < 2 {
		w = 2
	}
	// Vertical placement: lower half for ground objects.
	cy := float64(s.cfg.H) * (0.45 + 0.4*s.rng.Float64())
	// Crossing speed: the whole transit (W + w pixels) should take about
	// MeanSceneFrames, with jitter.
	transit := float64(s.cfg.MeanSceneFrames) * (0.7 + 0.6*s.rng.Float64())
	speed := (float64(s.cfg.W) + float64(w)) / transit
	var o *object
	if k := len(s.spare); k > 0 {
		o, s.spare = s.spare[k-1], s.spare[:k-1]
	} else {
		o = new(object)
	}
	*o = object{class: class, cy: cy, w: w, h: h, bright: bright}
	if fromLeft {
		o.cx = -float64(w) / 2
		o.vx = speed
	} else {
		o.cx = float64(s.cfg.W) + float64(w)/2
		o.vx = -speed
	}
	if crowd {
		// Stagger the crowd so members overlap but are not coincident.
		o.cx -= o.vx * float64(s.rng.Intn(s.cfg.MeanSceneFrames/3+1))
		o.cy += float64(s.rng.Intn(h+1)) - float64(h)/2
	}
	if class == s.cfg.Target && s.rng.Float64() < s.cfg.StopProb {
		o.willStop = true
		// Stop while 30-60% of the body is inside the frame: a partial
		// appearance the T-YOLO substitute systematically misses.
		inFrac := 0.3 + 0.3*s.rng.Float64()
		if fromLeft {
			o.stopAtX = float64(w)*(inFrac-0.5) + 0
		} else {
			o.stopAtX = float64(s.cfg.W) - float64(w)*(inFrac-0.5)
		}
	}
	return o
}

// visibleBox returns the object's on-frame bounding box and visible
// fraction; ok is false when fully outside.
func (s *Stream) visibleBox(o *object) (b frame.Box, ok bool) {
	x0 := int(o.cx - float64(o.w)/2)
	y0 := int(o.cy - float64(o.h)/2)
	x1, y1 := x0+o.w, y0+o.h
	cx0, cy0 := max(x0, 0), max(y0, 0)
	cx1, cy1 := min(x1, s.cfg.W), min(y1, s.cfg.H)
	if cx0 >= cx1 || cy0 >= cy1 {
		return frame.Box{}, false
	}
	vis := float64((cx1-cx0)*(cy1-cy0)) / float64(o.w*o.h)
	return frame.Box{
		X: cx0, Y: cy0, W: cx1 - cx0, H: cy1 - cy0,
		Class: o.class, Visible: vis,
	}, true
}

// Next produces the next frame of the stream: Capture, then Draw.
func (s *Stream) Next() *frame.Frame {
	f := s.Capture()
	f.Draw()
	return f
}

// Capture advances the world by one frame and returns that frame with
// its ground truth decided and its pixels not drawn: the frame carries a
// self-contained record of the capture, from which Frame.Draw paints
// exactly the bytes Next would have returned — whenever it is called, in
// whatever order the stream's frames are drawn, or never. All of the
// stream's own state moves here, so a frame that is dropped before
// anything reads its pixels costs its record and no plane.
func (s *Stream) Capture() *frame.Frame {
	s.step()
	f := s.capture()
	s.seq++
	s.frameIdx++
	s.totalFrames++
	if f.Truth.TargetCount(s.cfg.Target) > 0 {
		s.targetFrames++
	}
	return f
}

// step advances world state by one frame time.
func (s *Stream) step() {
	if s.cfg.SceneSwitchFrame > 0 && s.frameIdx == s.cfg.SceneSwitchFrame {
		seed := s.cfg.SceneSwitchBGSeed
		if seed == 0 {
			seed = s.cfg.Seed + 0x5c
		}
		s.bg = background(s.cfg.W, s.cfg.H, seed)
	}
	// Advance objects.
	alive := s.objects[:0]
	for _, o := range s.objects {
		if o.stopLeft > 0 {
			o.stopLeft--
		} else {
			if o.willStop {
				if (o.vx > 0 && o.cx >= o.stopAtX) || (o.vx < 0 && o.cx <= o.stopAtX) {
					o.willStop = false
					o.stopLeft = 1 + int(float64(s.cfg.StopFrames)*(0.5+s.rng.Float64()))
				}
			}
			if o.stopLeft == 0 {
				o.cx += o.vx
			}
		}
		// Keep while not fully departed on the far side.
		departed := (o.vx > 0 && o.cx-float64(o.w)/2 > float64(s.cfg.W)) ||
			(o.vx < 0 && o.cx+float64(o.w)/2 < 0)
		if departed {
			s.spare = append(s.spare, o)
		} else {
			alive = append(alive, o)
		}
	}
	s.objects = alive

	// Scene scheduling: when the world is empty, count down the gap and
	// spawn the next scene.
	if len(s.objects) == 0 {
		if s.inScene {
			// Scene just ended.
			s.inScene = false
			s.gapLeft = s.nextGap(s.lastSceneLen())
		}
		if s.gapLeft <= 0 {
			s.objects = s.spawnScene()
			s.inScene = true
			s.sceneID++
			s.sceneStart = s.frameIdx
		} else {
			s.gapLeft--
		}
	}
}

func (s *Stream) lastSceneLen() int {
	l := s.frameIdx - s.sceneStart
	if l < 1 {
		l = 1
	}
	return l
}

// capture records the current world as one frame's draw record, whose
// annotation is the frame's ground truth, and advances the noise
// generator past the frame as drawing it would. The record and the
// frame header come from free lists, so a warm capture allocates
// nothing: the frame's Release hands both back.
func (s *Stream) capture() *frame.Frame {
	lum := 0.0
	if s.cfg.LightAmp > 0 && s.cfg.LightPeriod > 0 {
		lum = s.cfg.LightAmp * math.Sin(2*math.Pi*float64(s.frameIdx)/float64(s.cfg.LightPeriod))
	}
	d := records.Get()
	d.ann = frame.Annotation{Boxes: d.ann.Boxes[:0], Lum: lum}
	d.bg, d.objs, d.noise, d.amp = s.bg, d.objs[:0], s.noiseState, int32(s.cfg.NoiseAmp)
	if n := len(s.objects); n > cap(d.objs) {
		// A recycled record grows once, to all that a frame of this
		// stream can show, not step by step as scenes get busier.
		n = max(n, s.maxObjects)
		d.ann.Boxes, d.objs = make([]frame.Box, 0, n), make([]paint, 0, n)
	}
	anyTarget := false
	for _, o := range s.objects {
		b, ok := s.visibleBox(o)
		if !ok {
			continue
		}
		d.ann.Boxes = append(d.ann.Boxes, b)
		d.objs = append(d.objs, paintOf(o))
		if o.class == s.cfg.Target {
			anyTarget = true
		}
	}
	if anyTarget {
		d.ann.SceneID = s.sceneID
	}
	if s.cfg.NoiseAmp > 0 {
		s.noiseState = s.noiseJump.apply(s.noiseState)
	}
	f := frame.NewCaptured(s.cfg.W, s.cfg.H, d)
	f.StreamID = s.cfg.StreamID
	f.Seq = s.seq
	f.Truth = &d.ann
	return f
}

// drawing is one captured frame's draw record: everything painting the
// frame reads, fixed at capture. The frame's annotation lives in the
// same allocation and is its Truth; objs is index-aligned with its
// Boxes. A record is its frame's until the frame's Release recycles it
// onto records, Boxes and objs keeping their capacity for the next.
type drawing struct {
	ann   frame.Annotation
	bg    *imgproc.Gray // the viewpoint's shared plane; only read
	objs  []paint
	noise uint32 // generator state the frame's noise starts from
	amp   int32  // Config.NoiseAmp
}

// records recycles draw records across the captures of every stream.
var records par.FreeList[drawing]

// RecordStats returns how many draw records captures have taken and
// frame releases given back, cumulative and process-global: compare
// deltas.
func RecordStats() (gets, puts int64) { return records.Stats() }

// Recycle implements frame.Drawer: the record's frame is released.
// It drops its background plane, which a filed record must not pin.
func (d *drawing) Recycle() {
	d.bg = nil
	records.Put(d)
}

// paint is how one visible object changes the background under its
// box: by bright, less 35 on the rows [darkFrom, darkTo) of a vehicle's
// window band.
type paint struct {
	bright, darkFrom, darkTo int32
}

// paintOf fixes an object's paint at its current position.
func paintOf(o *object) paint {
	p := paint{bright: int32(o.bright)}
	if o.class == frame.ClassCar || o.class == frame.ClassBus || o.class == frame.ClassTruck {
		// Cars get a darker "window band" across the upper third so they
		// are textured, not flat: rows whose offset from the object's top
		// lies strictly between h/5 and 2h/5.
		top := int(o.cy - float64(o.h)/2)
		p.darkFrom, p.darkTo = int32(top+o.h/5+1), int32(top+o.h*2/5)
	}
	return p
}

// Draw implements frame.Drawer: background, objects, illumination drift
// and sensor noise, painted into pix.
func (d *drawing) Draw(pix []uint8) {
	copy(pix, d.bg.Pix)
	for i, p := range d.objs {
		p.draw(pix, d.bg.W, d.ann.Boxes[i])
	}
	ilum := int(math.Round(d.ann.Lum))
	if d.amp > 0 {
		addNoise(pix, d.noise, ilum, int(d.amp))
	} else if ilum != 0 {
		var buf [256]uint8
		lut := clampTable(buf[:], 256, ilum)
		for i, p := range pix {
			pix[i] = lut[p]
		}
	}
}

// clampTable returns a table of n entries with t[i] = i+offset clamped
// to [0, 255], in buf when it is long enough.
func clampTable(buf []uint8, n, offset int) []uint8 {
	t := buf
	if n > len(buf) {
		t = make([]uint8, n)
	}
	t = t[:n]
	for i := range t {
		t[i] = uint8(min(max(i+offset, 0), 255))
	}
	return t
}

// addNoise adds the illumination offset and zero-centred sensor noise of
// the given peak-to-peak amplitude to every pixel, clamping to 8 bits,
// and returns the advanced generator state. One xorshift32 step yields
// four noise bytes; masking (the amplitude rounded up to a power of two)
// replaces the division a modulo would need. The sum pixel+noise indexes
// a clamp table that already holds the offset, so the loop has no
// data-dependent branch.
func addNoise(pix []uint8, st uint32, ilum, amp int) uint32 {
	mask := uint32(1)
	for mask < uint32(amp) {
		mask <<= 1
	}
	mask--
	half := int(mask) / 2
	var buf [512]uint8
	lut := clampTable(buf[:], 256+int(mask), ilum-half)
	step := func() {
		st ^= st << 13
		st ^= st >> 17
		st ^= st << 5
	}
	whole := len(pix) &^ 3
	for i := 0; i < whole; i += 4 {
		step()
		p := pix[i : i+4 : i+4]
		p[0] = lut[int(p[0])+int(st&mask)]
		p[1] = lut[int(p[1])+int(st>>8&mask)]
		p[2] = lut[int(p[2])+int(st>>16&mask)]
		p[3] = lut[int(p[3])+int(st>>24&mask)]
	}
	if tail := pix[whole:]; len(tail) > 0 {
		step()
		r := st
		for i, p := range tail {
			tail[i] = lut[int(p)+int(r&mask)]
			r >>= 8
		}
	}
	return st
}

// jump is k steps of xorshift32 at once. Each step XORs shifted copies of
// the state into itself, so it is linear over GF(2): the state after k
// steps is the XOR of the images of the state's set bits, and jump[i]
// is the image of bit i.
type jump [32]uint32

// apply returns the state k steps after st.
func (j *jump) apply(st uint32) uint32 {
	var out uint32
	for i := 0; st != 0; i, st = i+1, st>>1 {
		if st&1 != 0 {
			out ^= j[i]
		}
	}
	return out
}

// then returns the jump that runs j, then k.
func (j *jump) then(k *jump) *jump {
	var out jump
	for i, v := range j {
		out[i] = k.apply(v)
	}
	return &out
}

// jumps memoises noiseJump by plane length: every stream of a workload
// has one resolution, and the jump is a pure function of it.
var jumps struct {
	sync.Mutex
	byLen map[int]*jump
}

// noiseJump returns the jump addNoise makes over an n-pixel plane: one
// xorshift32 step per four pixels, the last word possibly partial.
func noiseJump(n int) *jump {
	jumps.Lock()
	defer jumps.Unlock()
	if j := jumps.byLen[n]; j != nil {
		return j
	}
	var one, acc jump // one step; no step
	for i := range one {
		st := uint32(1) << i
		st ^= st << 13
		st ^= st >> 17
		st ^= st << 5
		one[i], acc[i] = st, uint32(1)<<i
	}
	pow := &one
	for k := (n + 3) / 4; k > 0; k >>= 1 {
		if k&1 != 0 {
			acc = *acc.then(pow)
		}
		pow = pow.then(pow)
	}
	if jumps.byLen == nil {
		jumps.byLen = make(map[int]*jump)
	}
	jumps.byLen[n] = &acc
	return &acc
}

// draw paints an object's visible box, b, into a plane w pixels wide.
func (p paint) draw(pix []uint8, w int, b frame.Box) {
	for y := b.Y; y < b.Y+b.H; y++ {
		rowOff := y * w
		dark := 0
		if int32(y) >= p.darkFrom && int32(y) < p.darkTo {
			dark = 35
		}
		for x := b.X; x < b.X+b.W; x++ {
			v := int(pix[rowOff+x]) + int(p.bright) - dark
			if v > 255 {
				v = 255
			}
			pix[rowOff+x] = uint8(v)
		}
	}
}

// Generate produces the next n frames of the stream.
func Generate(s *Stream, n int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
