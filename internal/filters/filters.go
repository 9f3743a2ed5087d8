// Package filters implements FFS-VA's three prepositive filters (paper
// §3.2): the stream-specialized difference detector (SDD), the
// stream-specialized network model (SNM), and the shared T-YOLO counting
// filter. Each filter exposes a uniform Process interface returning a
// pass/drop verdict plus per-filter statistics, so the pipeline can
// compose them into the four-stage cascade.
package filters

import (
	"fmt"
	"math"

	"ffsva/internal/detect"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/nn"
)

// Verdict is a filter decision for one frame.
type Verdict int

// Filter decisions.
const (
	Drop Verdict = iota
	Pass
)

// String returns "drop" or "pass".
func (v Verdict) String() string {
	if v == Pass {
		return "pass"
	}
	return "drop"
}

// Stats counts a filter's traffic.
type Stats struct {
	Processed int64
	Passed    int64
}

// Dropped returns Processed − Passed.
func (s Stats) Dropped() int64 { return s.Processed - s.Passed }

// PassRate returns Passed/Processed, or 0 when idle.
func (s Stats) PassRate() float64 {
	if s.Processed == 0 {
		return 0
	}
	return float64(s.Passed) / float64(s.Processed)
}

// SDDSize is the square input side of the difference detector; the paper
// runs SDD on 100×100 images.
const SDDSize = 100

// Metric selects the SDD distance function.
type Metric int

// SDD distance metrics (paper §3.2.1 lists all three).
const (
	MetricMSE Metric = iota
	MetricNRMSE
	MetricSAD
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricMSE:
		return "mse"
	case MetricNRMSE:
		return "nrmse"
	case MetricSAD:
		return "sad"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// SDD is the stream-specialized difference detector: it drops frames
// whose distance to a reference background image is below δdiff. Two
// mechanisms absorb the slow background changes the paper identifies as
// δdiff confounders (weather, light intensity, §3.2.1): dropped frames
// fold into the reference by an exponential moving average at rate
// sddAlpha, and the distance removes the global brightness offset between
// frame and reference before comparing, so a uniformly lighter or darker
// scene is still background.
type SDD struct {
	ref    []float64 // SDDSize² running reference
	Delta  float64
	Metric Metric
	stats  Stats
	lastD  float64

	// Persistent per-stream scratch: the resize target, and the running
	// reference rounded to 8 bits, which Process keeps in step with ref.
	// Reusing these removes the two image allocations the paper's
	// hottest filter would otherwise make per frame.
	small  *imgproc.Gray
	refImg *imgproc.Gray
}

// sddAlpha is the EMA rate at which a dropped (background) frame folds
// into the SDD's reference.
const sddAlpha = 0.02

// NewSDD builds an SDD from a trained reference image (at any size; it is
// resampled to SDDSize) and a fitted threshold.
func NewSDD(ref *imgproc.Gray, delta float64, metric Metric) *SDD {
	small := imgproc.GetGray(SDDSize, SDDSize)
	imgproc.ResizeInto(ref, small)
	s := &SDD{Delta: delta, Metric: metric, ref: make([]float64, SDDSize*SDDSize)}
	for i, p := range small.Pix {
		s.ref[i] = float64(p)
	}
	small.Release()
	return s
}

// Distance computes an SDD distance between an image and a reference of
// equal size after removing the global illumination offset (the mean
// pixel difference), so a frame that is only brighter or darker than
// the reference scores as background. The trainer uses the same function
// when fitting δdiff, so thresholds and runtime agree.
func Distance(img, ref *imgproc.Gray, m Metric) float64 {
	if img.W != ref.W || img.H != ref.H {
		panic("filters: Distance: size mismatch")
	}
	n := float64(len(img.Pix))
	// Every partial sum of 8-bit differences is an integer far below 2⁵³,
	// so the float64 sum was exact and an int one converts to the same
	// value — without a float add chain.
	sum := 0
	refPix := ref.Pix[:len(img.Pix)]
	for i, p := range img.Pix {
		sum += int(p) - int(refPix[i])
	}
	offset := float64(sum) / n
	switch m {
	case MetricSAD:
		var sad float64
		for i := range img.Pix {
			d := float64(img.Pix[i]) - float64(ref.Pix[i]) - offset
			if d < 0 {
				d = -d
			}
			sad += d
		}
		return sad
	default: // MSE / NRMSE
		var sq float64
		for i := range img.Pix {
			d := float64(img.Pix[i]) - float64(ref.Pix[i]) - offset
			sq += d * d
		}
		mse := sq / n
		if m == MetricNRMSE {
			return math.Sqrt(mse) / 255
		}
		return mse
	}
}

// Stats returns traffic counters.
func (s *SDD) Stats() Stats { return s.stats }

// LastDistance reports the distance computed for the most recent frame,
// for threshold diagnostics.
func (s *SDD) LastDistance() float64 { return s.lastD }

// refLevel rounds one cell of the running reference to the 8-bit level
// the distance is measured against.
func refLevel(v float64) uint8 {
	if v < 0 {
		v = 0
	} else if v > 255 {
		v = 255
	}
	return uint8(v + 0.5)
}

// Process implements Filter: drop when the frame is background.
func (s *SDD) Process(f *frame.Frame) Verdict {
	s.stats.Processed++
	if s.small == nil {
		s.small = imgproc.NewGray(SDDSize, SDDSize)
		s.refImg = imgproc.NewGray(SDDSize, SDDSize)
		for i, v := range s.ref {
			s.refImg.Pix[i] = refLevel(v)
		}
	}
	imgproc.ResizeInto(imgproc.FromFrame(f), s.small)
	d := Distance(s.small, s.refImg, s.Metric)
	s.lastD = d
	if d <= s.Delta {
		// Background: adapt the reference, and re-round each cell while
		// it is in hand rather than in a second walk before the next
		// frame.
		ref, img := s.ref, s.refImg.Pix[:len(s.ref)]
		for i, p := range s.small.Pix[:len(ref)] {
			v := ref[i] + sddAlpha*(float64(p)-ref[i])
			ref[i] = v
			img[i] = refLevel(v)
		}
		return Drop
	}
	s.stats.Passed++
	return Pass
}

// SNMSize is the square input side of the specialized network model; the
// paper runs SNM on 50×50 images.
const SNMSize = 50

// SNM is the stream-specialized CNN filter. It predicts the probability
// that the frame contains the target object and drops frames scoring
// below tpre = (chigh − clow)·FilterDegree + clow (paper Eq. 2).
type SNM struct {
	Net          *nn.Net
	CLow, CHigh  float64
	FilterDegree float64
	stats        Stats
	lastP        float64
}

// NewSNM wraps a trained network and its selected thresholds.
func NewSNM(net *nn.Net, clow, chigh, filterDegree float64) *SNM {
	if clow > chigh {
		clow, chigh = chigh, clow
	}
	return &SNM{Net: net, CLow: clow, CHigh: chigh, FilterDegree: filterDegree}
}

// Stats returns traffic counters.
func (s *SNM) Stats() Stats { return s.stats }

// TPre returns the effective threshold for the current FilterDegree.
func (s *SNM) TPre() float64 {
	fd := s.FilterDegree
	if fd < 0 {
		fd = 0
	} else if fd > 1 {
		fd = 1
	}
	return (s.CHigh-s.CLow)*fd + s.CLow
}

// Input converts a frame to the network's input tensor. Exposed so the
// trainer builds datasets with the identical transform.
func Input(f *frame.Frame) *nn.Tensor {
	small := imgproc.Resize(imgproc.FromFrame(f), SNMSize, SNMSize)
	return GrayInput(small)
}

// GrayInput converts a pre-resized grayscale image to a normalized
// network input in [-1, 1].
func GrayInput(g *imgproc.Gray) *nn.Tensor {
	if g.W != SNMSize || g.H != SNMSize {
		g = imgproc.Resize(g, SNMSize, SNMSize)
	}
	x := nn.NewTensor(1, 1, SNMSize, SNMSize)
	normalizeInto(x.Data, g.Pix)
	return x
}

// normalizeInto maps 8-bit pixels to [-1, 1] floats; every element of
// dst is written, so dst may be dirty pooled storage.
func normalizeInto(dst []float32, pix []uint8) {
	for i, p := range pix {
		dst[i] = float32(p)/127.5 - 1
	}
}

// pooledInput converts a frame batch to one pooled multi-sample input
// tensor, reusing a single pooled resize target. The caller releases
// the tensor.
func pooledInput(fs []*frame.Frame) *nn.Tensor {
	x := nn.GetTensorDirty(len(fs), 1, SNMSize, SNMSize)
	small := imgproc.GetGray(SNMSize, SNMSize)
	const px = SNMSize * SNMSize
	for i, f := range fs {
		imgproc.ResizeInto(imgproc.FromFrame(f), small)
		normalizeInto(x.Data[i*px:(i+1)*px], small.Pix)
	}
	small.Release()
	return x
}

// Prob returns the predicted target probability for a frame. It runs on
// the pooled inference path, so the steady state allocates nothing.
func (s *SNM) Prob(f *frame.Frame) float64 {
	x := pooledInput([]*frame.Frame{f})
	out := s.Net.Infer(x)
	p := float64(nn.Sigmoid(out.Data[0]))
	out.Release()
	x.Release()
	s.lastP = p
	return p
}

// LastProb reports the most recent prediction.
func (s *SNM) LastProb() float64 { return s.lastP }

// Process implements Filter: pass target-object frames (c ≥ tpre).
func (s *SNM) Process(f *frame.Frame) Verdict {
	s.stats.Processed++
	if s.Prob(f) >= s.TPre() {
		s.stats.Passed++
		return Pass
	}
	return Drop
}

// ProcessBatch filters a dynamic batch of frames with one multi-sample
// network forward instead of per-frame calls, amortizing the im2col and
// dispatch overhead across the batch (the paper's dynamic-batch knob,
// §3.2.2). Verdicts are index-aligned with fs and identical to calling
// Process on each frame in order: the layers compute every sample with
// the same per-sample loops, so batching does not change the numbers.
// The slice is new; AppendBatch fills one the caller keeps.
func (s *SNM) ProcessBatch(fs []*frame.Frame) []Verdict {
	return s.AppendBatch(nil, fs)
}

// AppendBatch is ProcessBatch appending the verdicts to dst[:0], so a
// caller that keeps dst across batches allocates nothing once warm. The
// result is the caller's: the SNM keeps no reference to it, so a stream
// whose SNM two pipeline fragments share (a migrated stream's old
// fragment still draining) cannot see one batch's verdicts overwritten
// by another's.
func (s *SNM) AppendBatch(dst []Verdict, fs []*frame.Frame) []Verdict {
	if len(fs) == 0 {
		return dst[:0]
	}
	x := pooledInput(fs)
	out := s.Net.Infer(x)
	tpre := s.TPre()
	verdicts := dst[:0]
	for i := range fs {
		s.stats.Processed++
		p := float64(nn.Sigmoid(out.Data[i]))
		s.lastP = p
		v := Drop
		if p >= tpre {
			s.stats.Passed++
			v = Pass
		}
		verdicts = append(verdicts, v)
	}
	out.Release()
	x.Release()
	return verdicts
}

// ConfThresh is the detection confidence above which T-YOLO counts one
// target object (paper §3.2.3 uses 0.2).
const ConfThresh = 0.2

// TYolo is the shared counting filter: it passes frames whose detected
// target-object count reaches NumberofObjects, optionally relaxed by
// Tolerance misjudged objects (the accuracy/efficiency trade-off of paper
// §5.3.3).
type TYolo struct {
	Det    detect.Detector
	Target frame.Class
	// NumberOfObjects is the user's minimum intensity threshold.
	NumberOfObjects int
	// Tolerance relaxes the threshold: a frame passes when
	// count ≥ max(1, NumberOfObjects − Tolerance).
	Tolerance int
	stats     Stats
	lastCount int
	// dets is the detector's output on the current frame, refilled by
	// every visit.
	dets []detect.Detection
}

// NewTYolo wraps a detector into the counting filter.
func NewTYolo(det detect.Detector, target frame.Class, numberOfObjects int) *TYolo {
	if numberOfObjects < 1 {
		numberOfObjects = 1
	}
	return &TYolo{Det: det, Target: target, NumberOfObjects: numberOfObjects}
}

// Stats returns traffic counters.
func (t *TYolo) Stats() Stats { return t.stats }

// EffectiveThreshold returns the relaxed object-count threshold.
func (t *TYolo) EffectiveThreshold() int {
	thr := t.NumberOfObjects - t.Tolerance
	if thr < 1 {
		thr = 1
	}
	return thr
}

// LastCount reports the target count of the most recent frame.
func (t *TYolo) LastCount() int { return t.lastCount }

// Process implements Filter.
func (t *TYolo) Process(f *frame.Frame) Verdict {
	t.stats.Processed++
	t.dets = detect.AppendDetect(t.dets[:0], t.Det, f)
	t.lastCount = detect.Count(t.dets, t.Target, ConfThresh)
	if t.lastCount >= t.EffectiveThreshold() {
		t.stats.Passed++
		return Pass
	}
	return Drop
}

// ProcessCands is Process with the candidate-box side channel: alongside
// the verdict it appends the detector's target-class candidates, scaled
// to frame coordinates, to dst and returns the extended slice, ready
// for the reference tier's crop-and-pack consolidation. Detectors
// working at a reduced resolution advertise it via an `InputSize() int`
// method (detect.TinyGrid does); their boxes are rescaled, others are
// taken as frame-scale already. With a dst of enough capacity and a
// detector that is a detect.Appender, a warm call allocates nothing.
func (t *TYolo) ProcessCands(dst []frame.Candidate, f *frame.Frame) (Verdict, []frame.Candidate) {
	v := t.Process(f)
	sx, sy := 1.0, 1.0
	if sized, ok := t.Det.(interface{ InputSize() int }); ok {
		if in := sized.InputSize(); in > 0 {
			sx = float64(f.W) / float64(in)
			sy = float64(f.H) / float64(in)
		}
	}
	for _, d := range t.dets {
		if d.Class != t.Target || d.Conf < ConfThresh {
			continue
		}
		c := frame.Candidate{
			X:     int(float64(d.Box.X) * sx),
			Y:     int(float64(d.Box.Y) * sy),
			W:     int(float64(d.Box.W)*sx + 0.5),
			H:     int(float64(d.Box.H)*sy + 0.5),
			Class: t.Target,
			Conf:  d.Conf,
		}
		if c.W < 1 {
			c.W = 1
		}
		if c.H < 1 {
			c.H = 1
		}
		dst = append(dst, c)
	}
	return v, dst
}
