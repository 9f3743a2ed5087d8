package nn

import "ffsva/internal/par"

// tensorData recycles float32 backing arrays across tensors. Steady-state
// inference allocates the same shapes every frame (inputs, im2col column
// matrices, per-layer activations), so pooling them takes the per-frame
// heap allocation of the SNM forward path to zero.
var tensorData par.SlicePool[float32]

// colLists recycles Conv2D.Infer's per-call lists of a batch's column
// matrices, so borrowing them allocates nothing.
var colLists par.SlicePool[[]float32]

// GetTensor returns a pooled tensor of the given shape with all elements
// zero. Release it with Tensor.Release when done.
func GetTensor(shape ...int) *Tensor {
	t := GetTensorDirty(shape...)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// tensorHeads recycles the headers of pooled tensors, shape slice
// included, so a GetTensorDirty and its Release allocate nothing once
// warm.
var tensorHeads par.FreeList[Tensor]

// GetTensorDirty returns a pooled tensor whose data is NOT cleared; it is
// for kernels that overwrite every element (conv/dense outputs, filled
// inputs), where clearing would be pure waste. The shape is copied, so
// the caller's list may be anything, another tensor's Shape included.
func GetTensorDirty(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("nn: non-positive dimension in pooled tensor shape")
		}
		n *= d
	}
	t := tensorHeads.Get()
	t.Shape = append(t.Shape[:0], shape...)
	t.Data, t.pooled = tensorData.Get(n), true
	return t
}

// Release returns a pooled tensor's backing array, and its header, for
// reuse. It is a no-op on tensors not obtained from the pool (NewTensor
// allocations, reshape views), so callers can release unconditionally.
// After Release the tensor must not be used: the next GetTensorDirty
// may hand out the same header.
func (t *Tensor) Release() {
	if t == nil || !t.pooled || t.Data == nil {
		return
	}
	tensorData.Put(t.Data)
	t.Shape, t.Data, t.pooled = t.Shape[:0], nil, false
	tensorHeads.Put(t)
}
