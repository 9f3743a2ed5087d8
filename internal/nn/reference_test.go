package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The functions below are the backward kernels as they stood before
// ISSUE 21 gave the training path reused buffers and interleaved
// accumulators, kept verbatim (each takes the layer's input explicitly
// where the old code read its lastX cache) as the definition of the right
// answer: the rewrite claims the same bits, and these tests are that
// claim.

func convBackwardReference(c *Conv2D, x, grad *Tensor) *Tensor {
	n, inH, inW := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := c.OutSize(inH, inW)
	kdim := c.InC * c.K * c.K
	pdim := outH * outW
	sampleIn := c.InC * inH * inW
	sampleOut := c.OutC * pdim

	dx := NewTensor(x.Shape...)
	gradCols := NewTensor(kdim, pdim)
	for s := 0; s < n; s++ {
		cols := NewTensor(kdim, pdim)
		c.im2colInto(x.Data[s*sampleIn:(s+1)*sampleIn], inH, inW, outH, outW, cols.Data)
		gradCols.Zero()
		for oc := 0; oc < c.OutC; oc++ {
			g := grad.Data[s*sampleOut+oc*pdim : s*sampleOut+(oc+1)*pdim]
			// Bias gradient.
			var bsum float32
			for _, gv := range g {
				bsum += gv
			}
			c.b.Grad.Data[oc] += bsum
			// Weight gradient: dW[oc,k] += sum_p g[p] * cols[k,p]
			// Input gradient (col space): dCols[k,p] += w[oc,k]*g[p]
			wRow := c.w.Val.Data[oc*kdim : (oc+1)*kdim]
			gwRow := c.w.Grad.Data[oc*kdim : (oc+1)*kdim]
			for k := 0; k < kdim; k++ {
				colRow := cols.Data[k*pdim : (k+1)*pdim]
				gcRow := gradCols.Data[k*pdim : (k+1)*pdim]
				var acc float32
				wv := wRow[k]
				for p, gv := range g {
					acc += gv * colRow[p]
					gcRow[p] += wv * gv
				}
				gwRow[k] += acc
			}
		}
		// col2im: scatter gradCols back to input layout.
		kk := c.K * c.K
		dst := dx.Data[s*sampleIn:]
		for ch := 0; ch < c.InC; ch++ {
			chOff := ch * inH * inW
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					row := (ch*kk + ky*c.K + kx) * pdim
					for oy := 0; oy < outH; oy++ {
						iy := oy*c.Stride + ky - c.Pad
						if iy < 0 || iy >= inH {
							continue
						}
						src := row + oy*outW
						dstRow := chOff + iy*inW
						for ox := 0; ox < outW; ox++ {
							ix := ox*c.Stride + kx - c.Pad
							if ix < 0 || ix >= inW {
								continue
							}
							dst[dstRow+ix] += gradCols.Data[src+ox]
						}
					}
				}
			}
		}
	}
	return dx
}

func reluBackwardReference(x, grad *Tensor) *Tensor {
	dx := NewTensor(grad.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			dx.Data[i] = grad.Data[i]
		}
	}
	return dx
}

func denseBackwardReference(d *Dense, x, grad *Tensor) *Tensor {
	n := grad.Shape[0]
	dx := NewTensor(x.Shape...)
	for s := 0; s < n; s++ {
		in := x.Data[s*d.In : (s+1)*d.In]
		dIn := dx.Data[s*d.In : (s+1)*d.In]
		for o := 0; o < d.Out; o++ {
			g := grad.Data[s*d.Out+o]
			if g == 0 {
				continue
			}
			d.b.Grad.Data[o] += g
			wRow := d.w.Val.Data[o*d.In : (o+1)*d.In]
			gwRow := d.w.Grad.Data[o*d.In : (o+1)*d.In]
			for i, v := range in {
				gwRow[i] += g * v
				dIn[i] += g * wRow[i]
			}
		}
	}
	return dx
}

// sameBits fails unless the two slices hold the same float32 bit
// patterns (so a -0 for a +0 is a difference).
func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s[%d] = %v (%08x), reference %v (%08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func sameGrads(t *testing.T, what string, want, got Layer) {
	t.Helper()
	for i, p := range want.Params() {
		sameBits(t, what+" param gradient", p.Grad.Data, got.Params()[i].Grad.Data)
	}
}

// sparseGrad is a random output gradient with exact zeros planted: single
// elements, and every third call a whole zero sample (the Dense kernel
// skips those).
func sparseGrad(rng *rand.Rand, call int, shape ...int) *Tensor {
	g := randTensor(rng, shape...)
	for i := range g.Data {
		if rng.Intn(5) == 0 {
			g.Data[i] = 0
		}
	}
	if call%3 == 0 {
		per := g.Len() / shape[0]
		for i := 0; i < per; i++ {
			g.Data[i] = 0
		}
	}
	return g
}

// batchSize is the schedule of a 50-step training pass whose batch size
// changes twice mid-run, so reused buffers meet a shape they were not
// made for.
func batchSize(step int) int {
	switch {
	case step < 20:
		return 4
	case step < 35:
		return 1
	default:
		return 6
	}
}

// TestBackwardMatchesReference runs every layer type through 50 random
// steps of one training pass — buffers reused from step to step,
// parameter gradients left to accumulate over five steps at a time — and
// wants the reused-buffer, interleaved-accumulator kernels to return the
// input gradient and leave the parameter gradients of the old loops, bit
// for bit. The convolution shapes cover kdim ≡ 0, 1, 2, 3 (mod 4), so
// every tail of the four- and two-row sweeps runs.
func TestBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type layerCase struct {
		name     string
		layer    Layer
		in       []int // per-sample input shape
		backward func(ref Layer, x, grad *Tensor) *Tensor
	}
	conv := func(ref Layer, x, grad *Tensor) *Tensor { return convBackwardReference(ref.(*Conv2D), x, grad) }
	cases := []layerCase{
		{"snm_conv1", NewConv2D(rng, 1, 6, 5, 3, 2), []int{1, 50, 50}, conv},  // kdim 25
		{"snm_conv2", NewConv2D(rng, 6, 12, 3, 2, 1), []int{6, 17, 17}, conv}, // kdim 54
		{"conv_k27", NewConv2D(rng, 3, 5, 3, 1, 1), []int{3, 9, 11}, conv},
		{"conv_k8", NewConv2D(rng, 2, 3, 2, 2, 0), []int{2, 8, 8}, conv},
		{"relu", &ReLU{}, []int{3, 7, 5}, func(_ Layer, x, grad *Tensor) *Tensor { return reluBackwardReference(x, grad) }},
		{"dense", NewDense(rng, 45, 3), []int{5, 3, 3}, func(ref Layer, x, grad *Tensor) *Tensor { return denseBackwardReference(ref.(*Dense), x, grad) }},
	}
	for _, tc := range cases {
		ref := NewNet(tc.layer).Clone().Layers[0]
		for step := 0; step < 50; step++ {
			x := randTensor(rng, append([]int{batchSize(step)}, tc.in...)...)
			out := tc.layer.Forward(x)
			grad := sparseGrad(rng, step, out.Shape...)
			want := tc.backward(ref, x, grad)
			got := tc.layer.Backward(grad)
			sameBits(t, tc.name+" input gradient", want.Data, got.Data)
			sameGrads(t, tc.name, ref, tc.layer)
			if step%5 == 4 {
				for _, l := range []Layer{ref, tc.layer} {
					for _, p := range l.Params() {
						p.Grad.Zero()
					}
				}
			}
		}
	}
}

// TestFirstLayerGradientsWithoutInputGradient is the contract of
// Net.Backward's treatment of layer 0: a convolution asked for its
// parameter gradients only (four rows a sweep, no gradCols, no col2im)
// accumulates the bits it would have with the input gradient formed, and
// the bits of the reference loop; and a whole network trained through
// Net.Backward follows, weight for weight, one whose layers are all
// walked the old way.
func TestFirstLayerGradientsWithoutInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, shape := range [][5]int{{1, 6, 5, 3, 2}, {3, 5, 3, 1, 1}, {2, 3, 2, 2, 0}, {6, 12, 3, 2, 1}} {
		with := NewConv2D(rng, shape[0], shape[1], shape[2], shape[3], shape[4])
		without := NewNet(with).Clone().Layers[0].(*Conv2D)
		ref := NewNet(with).Clone().Layers[0].(*Conv2D)
		for step := 0; step < 12; step++ {
			x := randTensor(rng, batchSize(step*5), shape[0], 19, 21)
			grad := sparseGrad(rng, step, with.Forward(x).Shape...)
			without.Forward(x)
			with.Backward(grad)
			without.accumulate(grad)
			convBackwardReference(ref, x, grad)
			sameGrads(t, with.Name()+" with/without input gradient", with, without)
			sameGrads(t, with.Name()+" without input gradient", ref, without)
		}
		if without.tr.dx != nil || without.tr.gradCols != nil {
			t.Errorf("%s: accumulate formed an input gradient", with.Name())
		}
	}

	net := snmNet(rng, 20)
	old := net.Clone()
	optNet, optOld := NewSGD(0.05, 0.9), NewSGD(0.05, 0.9)
	labels := make([]float32, 8)
	for i := range labels {
		labels[i] = float32(i % 2)
	}
	gradNet, gradOld := NewTensor(8, 1), NewTensor(8, 1)
	for step := 0; step < 20; step++ {
		x := randTensor(rng, 8, 1, 20, 20)
		SigmoidBCE(net.Forward(x), labels, gradNet)
		net.Backward(gradNet)
		optNet.Step(net.Params())

		SigmoidBCE(old.Forward(x), labels, gradOld)
		g := gradOld
		for i := len(old.Layers) - 1; i >= 0; i-- {
			g = old.Layers[i].Backward(g)
		}
		optOld.Step(old.Params())
	}
	for i, p := range old.Params() {
		sameBits(t, "trained weights", p.Val.Data, net.Params()[i].Val.Data)
	}
}

// TestTrainingStepReusesItsBuffers pins what "a training pass reuses its
// buffers" means in bytes: once the first step has sized them, a step on
// the SNM's shapes allocates nothing, against 2.7 MB a step when every
// layer allocated its outputs, columns and gradients fresh.
func TestTrainingStepReusesItsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := snmNet(rng, 50)
	opt := NewSGD(0.05, 0.9)
	x := randTensor(rng, 16, 1, 50, 50)
	labels := make([]float32, 16)
	grad := NewTensor(16, 1)
	params := net.Params()
	step := func() {
		SigmoidBCE(net.Forward(x), labels, grad)
		net.Backward(grad)
		opt.Step(params)
	}
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const steps = 20
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/steps, (after.Mallocs-before.Mallocs)/steps
	t.Logf("a warm training step allocates %d bytes in %d objects", bytes, allocs)
	if bytes != 0 || allocs != 0 {
		t.Errorf("a warm training step allocates %d bytes in %d objects, want none", bytes, allocs)
	}
	for i, l := range net.Clone().Layers {
		switch l := l.(type) {
		case *Conv2D:
			if l.tr != nil {
				t.Errorf("layer %d: Clone carried training state", i)
			}
		case *Dense:
			if l.tr != nil {
				t.Errorf("layer %d: Clone carried training state", i)
			}
		}
	}
}
