package nn

import (
	"fmt"
	"math"
)

// Net is an ordered stack of layers.
type Net struct {
	Layers []Layer
}

// NewNet builds a network from the given layers.
func NewNet(layers ...Layer) *Net { return &Net{Layers: layers} }

// Forward runs the full stack and returns the final activations (for the
// SNM, per-sample logits of shape (N, 1)).
func (n *Net) Forward(x *Tensor) *Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// inferLayer is implemented by layers with an allocation-free inference
// path: no state cached for Backward, pooled scratch and output.
type inferLayer interface {
	Infer(x *Tensor) *Tensor
}

// Infer runs the full stack on the inference path: per-layer Infer when
// available (all built-in layers provide it), intermediate activations
// released back to the tensor pool as soon as the next layer has
// consumed them. The caller's input is never released; the returned
// tensor is pooled and the caller must Release it. The output is
// bitwise-identical to Forward's. With every layer on its Infer path
// the network is only read, so goroutines may share it.
func (n *Net) Infer(x *Tensor) *Tensor {
	in := x
	for _, l := range n.Layers {
		var out *Tensor
		if il, ok := l.(inferLayer); ok {
			out = il.Infer(in)
		} else {
			out = l.Forward(in)
		}
		if in != x {
			in.Release()
		}
		in = out
	}
	if in == x {
		// Empty layer stack: hand back a pooled copy so the ownership
		// contract (caller releases the result) holds regardless.
		out := GetTensorDirty(x.Shape...)
		copy(out.Data, x.Data)
		return out
	}
	return in
}

// Clone returns a network of the same architecture with its own copy of
// every parameter and none of the source's training state: the two
// compute the same outputs and neither sees the other's writes. It
// panics on a layer type this package does not define.
func (n *Net) Clone() *Net {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		switch l := l.(type) {
		case *Conv2D:
			layers[i] = &Conv2D{InC: l.InC, OutC: l.OutC, K: l.K, Stride: l.Stride, Pad: l.Pad,
				w: l.w.clone(), b: l.b.clone()}
		case *Dense:
			layers[i] = &Dense{In: l.In, Out: l.Out, w: l.w.clone(), b: l.b.clone()}
		case *ReLU:
			layers[i] = &ReLU{}
		default:
			panic(fmt.Sprintf("nn: Clone: unknown layer %s", l.Name()))
		}
	}
	return &Net{Layers: layers}
}

// Backward propagates an output gradient through the stack, accumulating
// parameter gradients. It returns nothing, so the gradient of the
// network's own input — the pixels — has no consumer: layer 0 is asked
// for its parameter gradients only, when it can tell the two apart (a
// Conv2D can). The test is on the concrete type: a type assertion to an
// interface goes through the runtime's per-call-site cache, which it
// fills, about one call in a thousand, with a heap allocation, so a warm
// training step would allocate now and then.
func (n *Net) Backward(grad *Tensor) {
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if len(n.Layers) == 0 {
		return
	}
	if first, ok := n.Layers[0].(*Conv2D); ok {
		first.accumulate(grad)
	} else {
		n.Layers[0].Backward(grad)
	}
}

// Params returns every trainable parameter in layer order.
func (n *Net) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// String describes the architecture.
func (n *Net) String() string {
	s := "net["
	for i, l := range n.Layers {
		if i > 0 {
			s += " -> "
		}
		s += l.Name()
	}
	return s + "]"
}

// Sigmoid is the logistic function.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// SigmoidBCE computes mean binary cross-entropy between sigmoid(logits)
// and labels, and writes the gradient w.r.t. the logits into grad, the
// caller's buffer of as many elements (every one is written, so a
// training loop reuses one). Combining the sigmoid with the loss keeps
// the gradient numerically stable (grad = sigmoid(z) − y).
func SigmoidBCE(logits *Tensor, labels []float32, grad *Tensor) (loss float64) {
	if logits.Len() != len(labels) || grad.Len() != len(labels) {
		panic(fmt.Sprintf("nn: SigmoidBCE: %d logits, %d gradients vs %d labels", logits.Len(), grad.Len(), len(labels)))
	}
	inv := 1 / float64(len(labels))
	for i, z := range logits.Data {
		y := float64(labels[i])
		zf := float64(z)
		// log(1+exp(-|z|)) formulation avoids overflow.
		loss += (math.Max(zf, 0) - zf*y + math.Log1p(math.Exp(-math.Abs(zf)))) * inv
		grad.Data[i] = float32((float64(Sigmoid(z)) - y) * inv)
	}
	return loss
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float32
	Momentum float32
	vel      map[*Param]*Tensor
}

// NewSGD returns an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*Param]*Tensor)}
}

// Step applies one update to each parameter from its accumulated gradient
// and clears the gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v, ok := s.vel[p]
		if !ok {
			v = NewTensor(p.Val.Shape...)
			s.vel[p] = v
		}
		for i := range p.Val.Data {
			v.Data[i] = s.Momentum*v.Data[i] - s.LR*p.Grad.Data[i]
			p.Val.Data[i] += v.Data[i]
			p.Grad.Data[i] = 0
		}
	}
}
