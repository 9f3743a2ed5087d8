package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericalGrad estimates dLoss/dx[i] by central differences, where loss
// is a fixed quadratic functional of the network output.
func lossOf(out *Tensor) float64 {
	var l float64
	for i, v := range out.Data {
		l += float64(v) * float64(v) * float64(i%3+1) / 2
	}
	return l
}

func lossGrad(out *Tensor) *Tensor {
	g := NewTensor(out.Shape...)
	for i, v := range out.Data {
		g.Data[i] = v * float32(i%3+1)
	}
	return g
}

// checkLayerGradients verifies analytic input and parameter gradients of a
// layer against central differences.
func checkLayerGradients(t *testing.T, layer Layer, x *Tensor, tol float64) {
	t.Helper()
	out := layer.Forward(x)
	dx := layer.Backward(lossGrad(out))

	const eps = 1e-2
	// Input gradient check on a sample of positions.
	for i := 0; i < x.Len(); i += 1 + x.Len()/37 {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(layer.Forward(x))
		x.Data[i] = orig - eps
		lm := lossOf(layer.Forward(x))
		x.Data[i] = orig
		want := (lp - lm) / (2 * eps)
		got := float64(dx.Data[i])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("%s: d/dx[%d] = %g, numeric %g", layer.Name(), i, got, want)
		}
	}
	// Parameter gradient check.
	layer.Forward(x)
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	out = layer.Forward(x)
	layer.Backward(lossGrad(out))
	for pi, p := range layer.Params() {
		for i := 0; i < p.Val.Len(); i += 1 + p.Val.Len()/23 {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + eps
			lp := lossOf(layer.Forward(x))
			p.Val.Data[i] = orig - eps
			lm := lossOf(layer.Forward(x))
			p.Val.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s: param %d grad[%d] = %g, numeric %g", layer.Name(), pi, i, got, want)
			}
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	x := NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64() * 0.5)
	}
	return x
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewConv2D(rng, 2, 3, 3, 1, 1)
	x := randTensor(rng, 2, 2, 6, 6)
	checkLayerGradients(t, layer, x, 2e-2)
}

func TestConvStridePadGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2D(rng, 1, 4, 5, 2, 2)
	x := randTensor(rng, 1, 1, 10, 10)
	checkLayerGradients(t, layer, x, 2e-2)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewDense(rng, 12, 5)
	x := randTensor(rng, 3, 12)
	checkLayerGradients(t, layer, x, 2e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := NewTensor(1, 4)
	copy(x.Data, []float32{-1, 0, 2, -3})
	out := r.Forward(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu out = %v, want %v", out.Data, want)
		}
	}
	g := NewTensor(1, 4)
	copy(g.Data, []float32{5, 5, 5, 5})
	dx := r.Backward(g)
	wantG := []float32{0, 0, 5, 0}
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("relu grad = %v, want %v", dx.Data, wantG)
		}
	}
}

func TestConvOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(rng, 1, 8, 5, 2, 2)
	oh, ow := c.OutSize(50, 50)
	if oh != 25 || ow != 25 {
		t.Fatalf("OutSize(50,50) = %d,%d want 25,25", oh, ow)
	}
	out := c.Forward(randTensor(rng, 2, 1, 50, 50))
	wantShape := []int{2, 8, 25, 25}
	for i, d := range wantShape {
		if out.Shape[i] != d {
			t.Fatalf("shape %v, want %v", out.Shape, wantShape)
		}
	}
}

func TestSigmoidBCEProperties(t *testing.T) {
	// Perfect confident predictions give near-zero loss.
	logits := NewTensor(2, 1)
	logits.Data[0], logits.Data[1] = 20, -20
	grad := NewTensor(2, 1)
	loss := SigmoidBCE(logits, []float32{1, 0}, grad)
	if loss > 1e-6 {
		t.Fatalf("confident correct loss = %g", loss)
	}
	for _, g := range grad.Data {
		if math.Abs(float64(g)) > 1e-6 {
			t.Fatalf("confident correct grad = %v", grad.Data)
		}
	}
	// Wrong confident predictions give large loss and correctly signed grads.
	loss = SigmoidBCE(logits, []float32{0, 1}, grad)
	if loss < 10 {
		t.Fatalf("confident wrong loss = %g, want large", loss)
	}
	if grad.Data[0] <= 0 || grad.Data[1] >= 0 {
		t.Fatalf("grad signs wrong: %v", grad.Data)
	}
}

func TestSigmoidBCEGradMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := randTensor(rng, 4, 1)
	labels := []float32{1, 0, 1, 0}
	grad, scratch := NewTensor(4, 1), NewTensor(4, 1)
	SigmoidBCE(logits, labels, grad)
	const eps = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := SigmoidBCE(logits, labels, scratch)
		logits.Data[i] = orig - eps
		lm := SigmoidBCE(logits, labels, scratch)
		logits.Data[i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(float64(grad.Data[i])-want) > 1e-3 {
			t.Fatalf("bce grad[%d] = %g, numeric %g", i, grad.Data[i], want)
		}
	}
}

func TestSigmoidRange(t *testing.T) {
	f := func(x float32) bool {
		s := Sigmoid(x)
		return s >= 0 && s <= 1 && !math.IsNaN(float64(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if Sigmoid(0) != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", Sigmoid(0))
	}
}

// snmNet builds the paper's SNM topology: CONV, CONV, FC.
func snmNet(rng *rand.Rand, inSize int) *Net {
	c1 := NewConv2D(rng, 1, 8, 5, 2, 2)
	h1, w1 := c1.OutSize(inSize, inSize)
	c2 := NewConv2D(rng, 8, 16, 3, 2, 1)
	h2, w2 := c2.OutSize(h1, w1)
	return NewNet(c1, &ReLU{}, c2, &ReLU{}, NewDense(rng, 16*h2*w2, 1))
}

func TestTrainingLearnsBlobDetection(t *testing.T) {
	// The network must learn to separate "bright blob present" from
	// "background only" — the same task the SNM performs.
	rng := rand.New(rand.NewSource(6))
	const size = 20
	makeSample := func(hasBlob bool) *Tensor {
		x := NewTensor(1, 1, size, size)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64() * 0.1)
		}
		if hasBlob {
			bx, by := rng.Intn(size-6), rng.Intn(size-6)
			for y := by; y < by+6; y++ {
				for xx := bx; xx < bx+6; xx++ {
					x.Data[y*size+xx] += 0.9
				}
			}
		}
		return x
	}
	net := snmNet(rng, size)
	opt := NewSGD(0.05, 0.9)
	const batch = 16
	grad := NewTensor(batch, 1)
	for iter := 0; iter < 150; iter++ {
		xb := NewTensor(batch, 1, size, size)
		labels := make([]float32, batch)
		for s := 0; s < batch; s++ {
			has := s%2 == 0
			if has {
				labels[s] = 1
			}
			copy(xb.Data[s*size*size:], makeSample(has).Data)
		}
		logits := net.Forward(xb)
		SigmoidBCE(logits, labels, grad)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	// Evaluate.
	correct := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		has := i%2 == 0
		out := net.Forward(makeSample(has))
		p := Sigmoid(out.Data[0])
		if (p > 0.5) == has {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.9 {
		t.Fatalf("blob-detection accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestDeterministicInit(t *testing.T) {
	a := snmNet(rand.New(rand.NewSource(42)), 20)
	b := snmNet(rand.New(rand.NewSource(42)), 20)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Val.Data {
			if pa[i].Val.Data[j] != pb[i].Val.Data[j] {
				t.Fatal("same seed produced different initial weights")
			}
		}
	}
}

// TestZeroGrad: SGD.Step clears every gradient it applies, so a training
// loop needs no separate zeroing pass between steps.
func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := snmNet(rng, 20)
	x := randTensor(rng, 2, 1, 20, 20)
	out := net.Forward(x)
	grad := NewTensor(2, 1)
	SigmoidBCE(out, []float32{1, 0}, grad)
	net.Backward(grad)
	nonZero := false
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				nonZero = true
			}
		}
	}
	if !nonZero {
		t.Fatal("backward produced no gradients")
	}
	NewSGD(0.05, 0.9).Step(net.Params())
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("SGD.Step left a gradient behind")
			}
		}
	}
}
