// Package train implements the model-training procedure of paper §4.1:
// frames of each stream are labeled by the reference model (YOLOv2 in the
// paper, the oracle here), split into train and test sets, and used to
// (a) fit the SDD reference image and δdiff threshold and (b) train the
// per-stream SNM and select its clow/chigh thresholds on the held-out
// split. A Set collects what that takes of each frame as the frame
// arrives and gives the frame back, so training a camera holds the
// corpus's 20 KB a frame, not the clip.
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

// Fit is the whole §4.1 procedure for one stream: it labels the next n
// frames of src with ref for target, then fits the SDD and trains the SNM
// on them. The frames stream through a Set and are released as they are
// read. A camera is trained this way once, and again after its scene
// changes (lab's TestSceneSwitchEndToEnd); the paper quotes about an hour
// of wall time for a retraining on its hardware.
func Fit(src Source, n int, ref detect.Detector, target frame.Class) (SDDFit, SNMResult, error) {
	set := NewSet(ref, target)
	set.AddFrom(src, n)
	sdd, err := FitSDD(set)
	if err != nil {
		return SDDFit{}, SNMResult{}, err
	}
	snm, err := TrainSNM(set)
	if err != nil {
		return SDDFit{}, SNMResult{}, err
	}
	return sdd, snm, nil
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
func FitSDD(set *Set) (SDDFit, error) {
	ref := imgproc.NewGray(filters.SDDSize, filters.SDDSize)
	acc := make([]float64, len(ref.Pix))
	n := 0
	for _, s := range set.Samples {
		if !s.Empty {
			continue
		}
		for i, p := range s.Plane.Pix {
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
	for _, s := range set.Samples {
		// Same luminance-compensated distance the runtime SDD uses, so
		// the fitted threshold transfers exactly.
		d := filters.Distance(s.Plane, ref, filters.MetricMSE)
		if s.Empty {
			bgD = append(bgD, d)
		} else if s.Has {
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

// The SNM training settings, fixed across the evaluation: the seed of the
// weight initialisation and batch sampling, the passes over the training
// split, the batch size, SGD's learning rate and momentum, and the share
// of samples held out for threshold selection.
const (
	snmSeed         = 1
	snmEpochs       = 4
	snmBatch        = 16
	snmLR           = 0.05
	snmMomentum     = 0.9
	snmTestFraction = 0.3
)

// SNMResult is a trained stream-specialized model with its selected
// thresholds and held-out accuracy.
type SNMResult struct {
	Net          *nn.Net
	CLow, CHigh  float64
	TestAccuracy float64
}

// NewSNMNet builds the paper's SNM topology (CONV, CONV, FC) for
// SNMSize×SNMSize inputs, with one output logit.
func NewSNMNet(rng *rand.Rand) *nn.Net {
	c1 := nn.NewConv2D(rng, 1, 6, 5, 3, 2)
	h1, w1 := c1.OutSize(filters.SNMSize, filters.SNMSize)
	c2 := nn.NewConv2D(rng, 6, 12, 3, 2, 1)
	h2, w2 := c2.OutSize(h1, w1)
	return nn.NewNet(c1, &nn.ReLU{}, c2, &nn.ReLU{}, nn.NewDense(rng, 12*h2*w2, 1))
}

// TrainSNM trains a fresh SNM on the set and selects clow/chigh on the
// held-out split: clow below almost all positive scores, chigh above
// almost all negative scores, giving the uncertainty band FilterDegree
// interpolates (paper §4.2.1).
func TrainSNM(set *Set) (SNMResult, error) {
	var trainSet, testSet []Sample
	for i, s := range set.Samples {
		// Deterministic interleaved split.
		if float64(i%100)/100 < snmTestFraction {
			testSet = append(testSet, s)
		} else {
			trainSet = append(trainSet, s)
		}
	}
	if len(testSet) == 0 {
		return SNMResult{}, fmt.Errorf("train: empty test split")
	}
	// Positives and negatives are sampled alternately, so a rare target
	// (low TOR) still fills half of every batch.
	var pools [2][]Sample
	for _, s := range trainSet {
		if s.Has {
			pools[0] = append(pools[0], s)
		} else {
			pools[1] = append(pools[1], s)
		}
	}
	if len(pools[0]) == 0 || len(pools[1]) == 0 {
		return SNMResult{}, fmt.Errorf("train: need positives and negatives, have %d and %d", len(pools[0]), len(pools[1]))
	}

	rng := rand.New(rand.NewSource(snmSeed))
	net := NewSNMNet(rng)
	opt := nn.NewSGD(snmLR, snmMomentum)
	params := net.Params()
	// One batch, label and loss-gradient buffer for the whole pass; with
	// the layers' own (nn.Layer), a step allocates no tensor.
	const inLen = filters.SNMSize * filters.SNMSize
	xb := nn.NewTensor(snmBatch, 1, filters.SNMSize, filters.SNMSize)
	yb := make([]float32, snmBatch)
	grad := nn.NewTensor(snmBatch, 1)
	steps := snmEpochs * (len(trainSet) + snmBatch - 1) / snmBatch
	for step := 0; step < steps; step++ {
		clear(yb)
		for s := 0; s < snmBatch; s++ {
			pool := pools[s%2]
			smp := pool[rng.Intn(len(pool))]
			copy(xb.Data[s*inLen:(s+1)*inLen], smp.Input.Data)
			if smp.Has {
				yb[s] = 1
			}
		}
		nn.SigmoidBCE(net.Forward(xb), yb, grad)
		net.Backward(grad)
		opt.Step(params)
	}

	// Threshold selection on the held-out split.
	var pos, neg []float64
	correct := 0
	for _, s := range testSet {
		out := net.Infer(s.Input)
		p := float64(nn.Sigmoid(out.Data[0]))
		out.Release()
		if s.Has {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
		if (p > 0.5) == s.Has {
			correct++
		}
	}
	lo, hi := 0.25, 0.75
	if len(pos) > 0 {
		lo = quantile(pos, 0.02)
	}
	if len(neg) > 0 {
		hi = quantile(neg, 0.98)
	}
	return SNMResult{
		// The weights without the training pass's buffers (3.6 MB on the
		// SNM's shapes): the result lives, and its streams infer on it, for
		// as long as the camera does.
		Net:          net.Clone(),
		CLow:         min(lo, hi),
		CHigh:        max(lo, hi),
		TestAccuracy: float64(correct) / float64(len(testSet)),
	}, nil
}

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
