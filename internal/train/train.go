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

	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/nn"
)

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
		d := filters.Distance(s.Plane, ref, filters.MetricMSE, true)
		if s.Empty {
			bgD = append(bgD, d)
		} else if s.HasAny() {
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

// MultiSNMResult is a trained multi-output SNM with per-class thresholds,
// for the paper's §5.5 multiple-target-objects case ("the structure of
// the specialized network model only needs to be changed to support the
// identification of all the target objects").
type MultiSNMResult struct {
	Net     *nn.Net
	Classes []frame.Class
	// CLow/CHigh are per-class threshold bands.
	CLow, CHigh []float64
	// TestAccuracy is the per-class held-out accuracy.
	TestAccuracy []float64
}

// NewSNMNet builds the paper's SNM topology (CONV, CONV, FC) for
// SNMSize×SNMSize inputs.
func NewSNMNet(rng *rand.Rand) *nn.Net { return NewMultiSNMNet(rng, 1) }

// NewMultiSNMNet builds the SNM topology with one output logit per class.
func NewMultiSNMNet(rng *rand.Rand, classes int) *nn.Net {
	c1 := nn.NewConv2D(rng, 1, 6, 5, 3, 2)
	h1, w1 := c1.OutSize(filters.SNMSize, filters.SNMSize)
	c2 := nn.NewConv2D(rng, 6, 12, 3, 2, 1)
	h2, w2 := c2.OutSize(h1, w1)
	return nn.NewNet(c1, &nn.ReLU{}, c2, &nn.ReLU{}, nn.NewDense(rng, 12*h2*w2, classes))
}

// TrainSNM trains a fresh SNM on a single-target set and selects
// clow/chigh on the held-out split: clow below almost all positive
// scores, chigh above almost all negative scores, giving the uncertainty
// band FilterDegree interpolates (paper §4.2.1). It is the one-class case
// of TrainMultiSNM: the pools are the positives and the negatives,
// sampled alternately.
func TrainSNM(set *Set, cfg SNMConfig) (SNMResult, error) {
	if len(set.Classes) != 1 {
		return SNMResult{}, fmt.Errorf("train: TrainSNM wants a single-target set, have %d classes", len(set.Classes))
	}
	m, err := TrainMultiSNM(set, cfg)
	if err != nil {
		return SNMResult{}, err
	}
	return SNMResult{Net: m.Net, CLow: m.CLow[0], CHigh: m.CHigh[0], TestAccuracy: m.TestAccuracy[0]}, nil
}

// TrainMultiSNM trains a multi-label SNM: one sigmoid output per class of
// the set, binary cross-entropy summed across classes, thresholds
// selected per class on the held-out split.
func TrainMultiSNM(set *Set, cfg SNMConfig) (MultiSNMResult, error) {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return MultiSNMResult{}, fmt.Errorf("train: invalid config %+v", cfg)
	}
	if len(set.Classes) == 0 {
		return MultiSNMResult{}, fmt.Errorf("train: no classes")
	}
	k := len(set.Classes)
	var trainSet, testSet []Sample
	for i, s := range set.Samples {
		if len(s.Has) != k {
			return MultiSNMResult{}, fmt.Errorf("train: label arity %d != classes %d", len(s.Has), k)
		}
		// Deterministic interleaved split.
		if float64(i%100)/100 < cfg.TestFraction {
			testSet = append(testSet, s)
		} else {
			trainSet = append(trainSet, s)
		}
	}
	// Per-class pools for balanced sampling; the negative pool holds
	// frames with no class at all.
	pools := make([][]Sample, k+1)
	for _, s := range trainSet {
		for j, h := range s.Has {
			if h {
				pools[j] = append(pools[j], s)
			}
		}
		if !s.HasAny() {
			pools[k] = append(pools[k], s)
		}
	}
	for j, pool := range pools {
		if len(pool) == 0 {
			return MultiSNMResult{}, fmt.Errorf("train: need every class and its absence, but class pool %d of %d is empty", j, k+1)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	net := NewMultiSNMNet(rng, k)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum)
	params := net.Params()
	// One batch, label and loss-gradient buffer for the whole pass; with
	// the layers' own (nn.Layer), a step allocates no tensor.
	const inLen = filters.SNMSize * filters.SNMSize
	xb := nn.NewTensor(cfg.BatchSize, 1, filters.SNMSize, filters.SNMSize)
	yb := make([]float32, cfg.BatchSize*k)
	grad := nn.NewTensor(cfg.BatchSize, k)
	steps := cfg.Epochs * (len(trainSet) + cfg.BatchSize - 1) / cfg.BatchSize
	for step := 0; step < steps; step++ {
		clear(yb)
		for s := 0; s < cfg.BatchSize; s++ {
			// Class-balanced sampling: rotate the pools, so rare targets
			// (low TOR) still train their class.
			pool := pools[s%(k+1)]
			smp := pool[rng.Intn(len(pool))]
			copy(xb.Data[s*inLen:(s+1)*inLen], smp.Input.Data)
			for j, h := range smp.Has {
				if h {
					yb[s*k+j] = 1
				}
			}
		}
		nn.SigmoidBCE(net.Forward(xb), yb, grad)
		net.Backward(grad)
		opt.Step(params)
	}

	// Threshold selection on the held-out split.
	if len(testSet) == 0 {
		return MultiSNMResult{}, fmt.Errorf("train: empty test split")
	}
	res := MultiSNMResult{
		// The weights without the training pass's buffers (3.6 MB on the
		// SNM's shapes): the result lives, and its streams infer on it, for
		// as long as the camera does.
		Net: net.Clone(), Classes: append([]frame.Class(nil), set.Classes...),
		CLow: make([]float64, k), CHigh: make([]float64, k),
		TestAccuracy: make([]float64, k),
	}
	pos := make([][]float64, k)
	neg := make([][]float64, k)
	correct := make([]int, k)
	for _, s := range testSet {
		out := net.Infer(s.Input)
		for j := 0; j < k; j++ {
			p := float64(nn.Sigmoid(out.Data[j]))
			if s.Has[j] {
				pos[j] = append(pos[j], p)
			} else {
				neg[j] = append(neg[j], p)
			}
			if (p > 0.5) == s.Has[j] {
				correct[j]++
			}
		}
		out.Release()
	}
	for j := 0; j < k; j++ {
		res.TestAccuracy[j] = float64(correct[j]) / float64(len(testSet))
		lo, hi := 0.25, 0.75
		if len(pos[j]) > 0 {
			lo = quantile(pos[j], 0.02)
		}
		if len(neg[j]) > 0 {
			hi = quantile(neg[j], 0.98)
		}
		res.CLow[j], res.CHigh[j] = min(lo, hi), max(lo, hi)
	}
	return res, nil
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
