// Package nn is a small pure-Go neural-network engine: float32 tensors,
// 2-D convolution (im2col), fully connected layers, ReLU, and an
// SGD-with-momentum trainer with sigmoid/binary-cross-entropy loss.
//
// It exists because FFS-VA's SNM filter is a stream-specialized 3-layer
// CNN (CONV, CONV, FC — paper §3.2.2) that is trained per stream on
// frames labeled by the reference model. With no DL bindings available,
// the engine reimplements exactly the pieces that training and inference
// of that model require; it is deliberately not a general framework.
package nn

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense float32 array in row-major order. The first dimension
// is conventionally the batch dimension.
type Tensor struct {
	Shape []int
	Data  []float32
	// pooled marks data borrowed from the tensor pool; Release returns
	// it there.
	pooled bool
}

// NewTensor allocates a zeroed tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("nn: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Len returns the total element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// fillUniform fills the tensor with values drawn uniformly from
// [-scale, scale] using rng, for deterministic weight initialization.
func (t *Tensor) fillUniform(rng *rand.Rand, scale float64) {
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
}

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Val  *Tensor
	Grad *Tensor
}

func newParam(shape ...int) *Param {
	return &Param{Val: NewTensor(shape...), Grad: NewTensor(shape...)}
}

// clone copies the parameter's value; the copy starts with a zero
// gradient.
func (p *Param) clone() *Param {
	return &Param{Val: p.Val.Clone(), Grad: NewTensor(p.Val.Shape...)}
}
