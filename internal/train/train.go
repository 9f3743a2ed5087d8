// Package train implements the model-training procedure of paper §4.1:
// frames of each stream are labeled by the reference model (YOLOv2 in the
// paper, the oracle here), split into train and test sets, and used to
// (a) fit the SDD reference image and δdiff threshold and (b) train the
// per-stream SNM and select its clow/chigh thresholds on the held-out
// split.
package train

import (
	"fmt"
	"math/rand"
	"sort"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/nn"
)

// Labeled is one training frame with its reference-model label.
type Labeled struct {
	F *frame.Frame
	// HasTarget is true when the reference model found at least one
	// target-class object.
	HasTarget bool
	// Empty is true when the reference model found nothing at all
	// (a pure background frame, usable for the SDD reference).
	Empty bool
}

// Label runs the reference model over frames and attaches labels.
func Label(frames []*frame.Frame, ref detect.Detector, target frame.Class) []Labeled {
	out := make([]Labeled, len(frames))
	for i, f := range frames {
		dets := ref.Detect(f)
		out[i] = Labeled{
			F:         f,
			HasTarget: detect.Count(dets, target, 0.5) > 0,
			Empty:     len(dets) == 0,
		}
	}
	return out
}

// SDDFit is the trained difference detector state.
type SDDFit struct {
	Ref   *imgproc.Gray
	Delta float64
}

// FitSDD computes the reference image as the mean of background frames
// and selects δdiff to separate background from content frames: high
// enough to drop almost all background, low enough to keep almost all
// target frames (the paper's relaxed-filtering principle biases the
// threshold toward passing).
func FitSDD(labeled []Labeled) (SDDFit, error) {
	ref := imgproc.NewGray(filters.SDDSize, filters.SDDSize)
	acc := make([]float64, len(ref.Pix))
	n := 0
	for _, l := range labeled {
		if !l.Empty {
			continue
		}
		small := imgproc.Resize(imgproc.FromFrame(l.F), filters.SDDSize, filters.SDDSize)
		for i, p := range small.Pix {
			acc[i] += float64(p)
		}
		n++
		if n >= 60 { // "dozens of background frames"
			break
		}
	}
	if n == 0 {
		return SDDFit{}, fmt.Errorf("train: no background frames to build SDD reference")
	}
	for i := range acc {
		ref.Pix[i] = uint8(acc[i]/float64(n) + 0.5)
	}

	var bgD, targetD []float64
	for _, l := range labeled {
		small := imgproc.Resize(imgproc.FromFrame(l.F), filters.SDDSize, filters.SDDSize)
		// Same luminance-compensated distance the runtime SDD uses, so
		// the fitted threshold transfers exactly.
		d := filters.Distance(small, ref, filters.MetricMSE, true)
		if l.Empty {
			bgD = append(bgD, d)
		} else if l.HasTarget {
			targetD = append(targetD, d)
		}
	}
	// Place δdiff in the valley between the background cluster and the
	// faintest targets: a clear margin above the background's high tail
	// (the luminance-compensated distances cluster tightly, so sitting
	// exactly on the quantile would flip on the next slice's noise), but
	// — relaxed filtering, §3.3 — never near the faint-target tail.
	bgHi := quantile(bgD, 0.98)
	delta := bgHi * 2.5
	if len(targetD) > 0 {
		if tLo := quantile(targetD, 0.02); tLo > bgHi {
			delta = min(delta, max(tLo*0.5, bgHi*1.2))
		} else {
			// Distributions overlap; err toward passing targets.
			delta = bgHi
		}
	}
	return SDDFit{Ref: ref, Delta: delta}, nil
}

// SNMConfig controls SNM training.
type SNMConfig struct {
	Seed      int64
	Epochs    int
	BatchSize int
	LR        float32
	Momentum  float32
	// TestFraction of samples is held out for threshold selection.
	TestFraction float64
}

// DefaultSNMConfig returns the training configuration used across the
// evaluation.
func DefaultSNMConfig() SNMConfig {
	return SNMConfig{Seed: 1, Epochs: 4, BatchSize: 16, LR: 0.05, Momentum: 0.9, TestFraction: 0.3}
}

// SNMResult is a trained stream-specialized model with its selected
// thresholds and held-out accuracy.
type SNMResult struct {
	Net          *nn.Net
	CLow, CHigh  float64
	TestAccuracy float64
}

// NewSNMNet builds the paper's SNM topology (CONV, CONV, FC) for
// SNMSize×SNMSize inputs.
func NewSNMNet(rng *rand.Rand) *nn.Net {
	c1 := nn.NewConv2D(rng, 1, 6, 5, 3, 2)
	h1, w1 := c1.OutSize(filters.SNMSize, filters.SNMSize)
	c2 := nn.NewConv2D(rng, 6, 12, 3, 2, 1)
	h2, w2 := c2.OutSize(h1, w1)
	return nn.NewNet(c1, &nn.ReLU{}, c2, &nn.ReLU{}, nn.NewDense(rng, 12*h2*w2, 1))
}

// TrainSNM trains a fresh SNM on labeled frames and selects clow/chigh on
// the held-out split: clow below almost all positive scores, chigh above
// almost all negative scores, giving the uncertainty band FilterDegree
// interpolates (paper §4.2.1).
func TrainSNM(labeled []Labeled, cfg SNMConfig) (SNMResult, error) {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return SNMResult{}, fmt.Errorf("train: invalid config %+v", cfg)
	}
	type sample struct {
		x   *nn.Tensor
		pos bool
	}
	var train, test []sample
	for i, l := range labeled {
		s := sample{x: filters.Input(l.F), pos: l.HasTarget}
		// Deterministic interleaved split.
		if float64(i%100)/100 < cfg.TestFraction {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}
	var pos, neg []sample
	for _, s := range train {
		if s.pos {
			pos = append(pos, s)
		} else {
			neg = append(neg, s)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return SNMResult{}, fmt.Errorf("train: need both classes, have %d positive / %d negative", len(pos), len(neg))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	net := NewSNMNet(rng)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum)
	inLen := filters.SNMSize * filters.SNMSize
	steps := cfg.Epochs * (len(train) + cfg.BatchSize - 1) / cfg.BatchSize
	for step := 0; step < steps; step++ {
		xb := nn.NewTensor(cfg.BatchSize, 1, filters.SNMSize, filters.SNMSize)
		yb := make([]float32, cfg.BatchSize)
		for s := 0; s < cfg.BatchSize; s++ {
			// Class-balanced sampling: alternate positives and negatives
			// so rare targets (low TOR) still train the positive class.
			var smp sample
			if s%2 == 0 {
				smp = pos[rng.Intn(len(pos))]
				yb[s] = 1
			} else {
				smp = neg[rng.Intn(len(neg))]
			}
			copy(xb.Data[s*inLen:], smp.x.Data)
		}
		logits := net.Forward(xb)
		_, grad := nn.SigmoidBCE(logits, yb)
		net.Backward(grad)
		opt.Step(net.Params())
	}

	// Threshold selection on the held-out split.
	var posScores, negScores []float64
	correct := 0
	for _, s := range test {
		p := float64(nn.Sigmoid(net.Forward(s.x).Data[0]))
		if s.pos {
			posScores = append(posScores, p)
		} else {
			negScores = append(negScores, p)
		}
		if (p > 0.5) == s.pos {
			correct++
		}
	}
	if len(test) == 0 {
		return SNMResult{}, fmt.Errorf("train: empty test split")
	}
	res := SNMResult{Net: net, TestAccuracy: float64(correct) / float64(len(test))}
	lo, hi := 0.25, 0.75
	if len(posScores) > 0 {
		lo = quantile(posScores, 0.02)
	}
	if len(negScores) > 0 {
		hi = quantile(negScores, 0.98)
	}
	res.CLow, res.CHigh = min(lo, hi), max(lo, hi)
	return res, nil
}

// CloneNet returns an independent copy of a trained SNM network. Each
// pipeline stream needs its own instance because layer forward caches are
// per-instance state.
func CloneNet(src *nn.Net) *nn.Net { return src.Clone() }

// quantile returns the q-quantile of xs (copied and sorted); q is clamped
// to [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	i := int(q * float64(len(s)-1))
	return s[i]
}
