package nn

import (
	"math/rand"
	"testing"
)

func BenchmarkSNMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := snmNet(rng, 50)
	x := randTensor(rng, 1, 1, 50, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkSNMForwardBatch16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := snmNet(rng, 50)
	x := randTensor(rng, 16, 1, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkSNMTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := snmNet(rng, 50)
	opt := NewSGD(0.05, 0.9)
	x := randTensor(rng, 16, 1, 50, 50)
	labels := make([]float32, 16)
	for i := range labels {
		labels[i] = float32(i % 2)
	}
	grad := NewTensor(16, 1)
	params := net.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x)
		SigmoidBCE(out, labels, grad)
		net.Backward(grad)
		opt.Step(params)
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(rng, 8, 16, 3, 1, 1)
	x := randTensor(rng, 1, 8, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x)
	}
}
