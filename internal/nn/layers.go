package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Layer is one differentiable stage of a network. Forward caches whatever
// Backward needs; Backward consumes the gradient w.r.t. the layer output
// and returns the gradient w.r.t. the layer input, accumulating parameter
// gradients along the way.
//
// Training buffers belong to the layer. The tensors Forward and Backward
// return, and everything Forward caches, live in the layer's pass state
// and are reused by its next training pass: a Forward result is valid
// until the layer's next Forward, a Backward result until its next
// Backward, and a caller that needs one longer Clones it. Every buffer is
// fully overwritten, or zeroed first where the kernel accumulates, so
// reuse never changes a result. Forward also keeps the caller's input
// (not a copy) until Backward has run. The pass state is made on the
// first Forward and is not part of what Net.Clone copies, so a network
// that only ever infers never has one.
//
// Training is single-goroutine: Forward caches state for Backward. The
// inference path (each layer's Infer, hence Net.Infer) reads the layer
// and writes nothing to it — its scratch and output are borrowed from
// the tensor pool per call — so one trained network serves any number
// of goroutines at once, and a camera's streams share its net.
type Layer interface {
	Name() string
	Forward(x *Tensor) *Tensor
	Backward(grad *Tensor) *Tensor
	Params() []*Param
}

// pass is what a layer keeps from one step of a training pass to the
// next (see Layer). One struct serves every layer type; each uses the
// fields its kernels need.
type pass struct {
	x   *Tensor // the last Forward's input, the caller's tensor
	out *Tensor // Forward's result
	dx  *Tensor // Backward's result

	cols     [][]float32 // Conv2D: per-sample im2col matrices, read by Backward
	gradCols *Tensor     // Conv2D: one sample's input gradient in column space
}

// begin returns the layer's pass state, made on first use, with x
// recorded as the step's input.
func begin(pp **pass, x *Tensor) *pass {
	if *pp == nil {
		*pp = &pass{}
	}
	(*pp).x = x
	return *pp
}

// inputGrad returns the zeroed gradient buffer shaped like the step's
// input, for kernels that accumulate into it.
func (p *pass) inputGrad() *Tensor {
	p.dx = shaped(p.dx, p.x.Shape...)
	p.dx.Zero()
	return p.dx
}

// shaped returns t when it already has the given shape and a new zeroed
// tensor otherwise. shape is copied before it reaches NewTensor so that a
// caller's variadic list stays on its stack.
func shaped(t *Tensor, shape ...int) *Tensor {
	if t != nil && slices.Equal(t.Shape, shape) {
		return t
	}
	return NewTensor(append([]int(nil), shape...)...)
}

// Conv2D is a 2-D convolution over NCHW tensors, implemented with im2col
// so the inner loop is a dense matrix product.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	w *Param // (OutC, InC*K*K)
	b *Param // (OutC)

	tr *pass // training-pass state; nil on a network that only infers
}

// NewConv2D creates a convolution layer with He-style uniform
// initialization drawn from rng.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	if stride <= 0 || k <= 0 {
		panic("nn: Conv2D requires positive kernel and stride")
	}
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad}
	c.w = newParam(outC, inC*k*k)
	c.b = newParam(outC)
	fanIn := float64(inC * k * k)
	c.w.Val.fillUniform(rng, 1.7/math.Sqrt(fanIn))
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d)", c.K, c.K, c.InC, c.OutC, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// OutSize returns the spatial output size for an inH×inW input.
func (c *Conv2D) OutSize(inH, inW int) (outH, outW int) {
	outH = (inH+2*c.Pad-c.K)/c.Stride + 1
	outW = (inW+2*c.Pad-c.K)/c.Stride + 1
	return outH, outW
}

// im2colInto lowers one sample (C,H,W) into cols, a (C*K*K, outH*outW)
// matrix whose rows it fills in order. Every element of cols is written
// (out-of-bounds taps as zeros), so cols may come from the dirty tensor
// pool. The tap loop keeps only its two rows, the tap index and the
// stride live, so they stay in registers.
func (c *Conv2D) im2colInto(x []float32, inH, inW, outH, outW int, cols []float32) {
	k, stride, pad := c.K, c.Stride, c.Pad
	for ch := 0; ch < c.InC; ch++ {
		plane := x[ch*inH*inW : (ch+1)*inH*inW]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rows := cols[:outH*outW]
				cols = cols[outH*outW:]
				for oy := 0; oy < outH; oy++ {
					dst := rows[oy*outW : (oy+1)*outW]
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= inH {
						clear(dst)
						continue
					}
					src := plane[iy*inW : (iy+1)*inW]
					ix := kx - pad
					for o := range dst {
						if uint(ix) < uint(len(src)) {
							dst[o] = src[ix]
						} else {
							dst[o] = 0
						}
						ix += stride
					}
				}
			}
		}
	}
}

// convPanel is the number of output positions per cache block of the
// convolution matmul: four float32 accumulator rows of this width
// (~8 KB) plus one im2col row panel stay resident in L1 while the
// kernel sweeps kdim.
const convPanel = 512

// convBlock computes every output channel of one sample (one per bias):
// out[oc*pdim+p] = bias[oc] + Σ_k w[oc*kdim+k]·cols[k*pdim+p]. The
// outer loop blocks over output-position panels; within a panel,
// channels run in quads so each im2col row panel is loaded once per
// four channels (with the four weights in registers) instead of once
// per channel. Per output element the arithmetic is exactly the scalar
// row kernel's — bias first, then k ascending with zero-weight taps
// skipped — so outputs are bitwise-identical to the unblocked loop, and
// Forward and Infer (which both route here) to each other.
func convBlock(out, w, bias, cols []float32, kdim, pdim int) {
	nout := len(bias)
	for p0 := 0; p0 < pdim; p0 += convPanel {
		p1 := p0 + convPanel
		if p1 > pdim {
			p1 = pdim
		}
		oc := 0
		for ; oc+4 <= nout; oc += 4 {
			d0 := out[oc*pdim+p0 : oc*pdim+p1]
			d1 := out[(oc+1)*pdim+p0 : (oc+1)*pdim+p1]
			d2 := out[(oc+2)*pdim+p0 : (oc+2)*pdim+p1]
			d3 := out[(oc+3)*pdim+p0 : (oc+3)*pdim+p1]
			b0, b1, b2, b3 := bias[oc], bias[oc+1], bias[oc+2], bias[oc+3]
			for i := range d0 {
				d0[i] = b0
				d1[i] = b1
				d2[i] = b2
				d3[i] = b3
			}
			w0 := w[oc*kdim : (oc+1)*kdim]
			w1 := w[(oc+1)*kdim : (oc+2)*kdim]
			w2 := w[(oc+2)*kdim : (oc+3)*kdim]
			w3 := w[(oc+3)*kdim : (oc+4)*kdim]
			for k := 0; k < kdim; k++ {
				colRow := cols[k*pdim+p0 : k*pdim+p1]
				v0, v1, v2, v3 := w0[k], w1[k], w2[k], w3[k]
				if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
					for p, cv := range colRow {
						d0[p] += v0 * cv
						d1[p] += v1 * cv
						d2[p] += v2 * cv
						d3[p] += v3 * cv
					}
					continue
				}
				// Exact-zero weights keep the scalar kernel's
				// per-channel skip: x + 0·c is not always a bitwise
				// no-op (-0 + 0 = +0).
				if v0 != 0 {
					for p, cv := range colRow {
						d0[p] += v0 * cv
					}
				}
				if v1 != 0 {
					for p, cv := range colRow {
						d1[p] += v1 * cv
					}
				}
				if v2 != 0 {
					for p, cv := range colRow {
						d2[p] += v2 * cv
					}
				}
				if v3 != 0 {
					for p, cv := range colRow {
						d3[p] += v3 * cv
					}
				}
			}
		}
		for ; oc < nout; oc++ {
			d := out[oc*pdim+p0 : oc*pdim+p1]
			b := bias[oc]
			for i := range d {
				d[i] = b
			}
			wRow := w[oc*kdim : (oc+1)*kdim]
			for k := 0; k < kdim; k++ {
				v := wRow[k]
				if v == 0 {
					continue
				}
				colRow := cols[k*pdim+p0 : k*pdim+p1]
				for p, cv := range colRow {
					d[p] += v * cv
				}
			}
		}
	}
}

// forwardInto runs the convolution over the batch, one sample at a
// time: im2col into cols[s], sample s's (kdim, pdim) matrix, then the
// matmul over every output channel.
func (c *Conv2D) forwardInto(x, out *Tensor, cols [][]float32, n, inH, inW, outH, outW int) {
	sampleIn := c.InC * inH * inW
	sampleOut := c.OutC * outH * outW
	kdim := c.InC * c.K * c.K
	pdim := outH * outW
	for s := 0; s < n; s++ {
		c.im2colInto(x.Data[s*sampleIn:(s+1)*sampleIn], inH, inW, outH, outW, cols[s])
		convBlock(out.Data[s*sampleOut:(s+1)*sampleOut], c.w.Val.Data, c.b.Val.Data, cols[s], kdim, pdim)
	}
}

// Forward implements Layer for NCHW input (N, InC, H, W).
func (c *Conv2D) Forward(x *Tensor) *Tensor {
	n, outH, outW := c.checkInput(x)
	inH, inW := x.Shape[2], x.Shape[3]
	p := begin(&c.tr, x)
	if out := shaped(p.out, n, c.OutC, outH, outW); out != p.out {
		// A new batch size or input size: the column matrices, which
		// Backward reads, are sized with the output.
		p.out = out
		p.cols = make([][]float32, n)
		for s := range p.cols {
			p.cols[s] = make([]float32, c.InC*c.K*c.K*outH*outW)
		}
	}
	c.forwardInto(x, p.out, p.cols, n, inH, inW, outH, outW)
	return p.out
}

// Infer is the inference-only forward: the layer is only read. Each
// sample's column matrix is borrowed from the tensor pool for the call
// — one length per layer, so what the pool keeps of them is bounded by
// the largest batch, not by how many batch sizes occur — and the output
// is pooled too. The output is bitwise-identical to Forward's; the
// caller releases it.
func (c *Conv2D) Infer(x *Tensor) *Tensor {
	n, outH, outW := c.checkInput(x)
	inH, inW := x.Shape[2], x.Shape[3]
	cols := colLists.Get(n)
	for s := range cols {
		cols[s] = tensorData.Get(c.InC * c.K * c.K * outH * outW)
	}
	out := GetTensorDirty(n, c.OutC, outH, outW)
	c.forwardInto(x, out, cols, n, inH, inW, outH, outW)
	for s, col := range cols {
		tensorData.Put(col)
		cols[s] = nil
	}
	colLists.Put(cols)
	return out
}

// checkInput validates the NCHW input shape and returns (n, outH, outW).
func (c *Conv2D) checkInput(x *Tensor) (n, outH, outW int) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s: bad input shape %v", c.Name(), x.Shape))
	}
	inH, inW := x.Shape[2], x.Shape[3]
	outH, outW = c.OutSize(inH, inW)
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: %s: input %dx%d too small", c.Name(), inH, inW))
	}
	return x.Shape[0], outH, outW
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Tensor) *Tensor { return c.backward(grad, true) }

// accumulate is Net.Backward's first-layer step: the parameter
// gradients of Backward, bit for bit, with no input gradient formed.
func (c *Conv2D) accumulate(grad *Tensor) { c.backward(grad, false) }

func (c *Conv2D) backward(grad *Tensor, inputGrad bool) *Tensor {
	p := c.tr
	x := p.x
	n, inH, inW := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := p.out.Shape[2], p.out.Shape[3]
	kdim := c.InC * c.K * c.K
	pdim := outH * outW
	sampleIn := c.InC * inH * inW
	sampleOut := c.OutC * pdim

	var dx, gradCols *Tensor
	if inputGrad {
		dx = p.inputGrad()
		p.gradCols = shaped(p.gradCols, kdim, pdim)
		gradCols = p.gradCols
	}
	for s := 0; s < n; s++ {
		cols := p.cols[s]
		if inputGrad {
			gradCols.Zero()
		}
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
			gwRow := c.w.Grad.Data[oc*kdim : (oc+1)*kdim]
			if inputGrad {
				weightAndColGrad(gwRow, c.w.Val.Data[oc*kdim:(oc+1)*kdim], g, cols, gradCols.Data)
			} else {
				weightGrad(gwRow, g, cols)
			}
		}
		if inputGrad {
			c.col2im(gradCols.Data, dx.Data[s*sampleIn:(s+1)*sampleIn], inH, inW, outH, outW)
		}
	}
	return dx
}

// weightGrad adds Σ_p g[p]·cols[k,p] to gw[k] for every row k of the
// (len(gw), len(g)) matrix cols. One row's sum is a chain of dependent
// float adds, a few cycles each; four rows share a sweep of g, each with
// its own accumulator, so the chains overlap. Every accumulator still
// sees its row's products in ascending p starting from zero and is added
// to gw[k] once — the operations of the one-row loop in the same order,
// hence the same bits.
func weightGrad(gw, g, cols []float32) {
	pdim := len(g)
	k := 0
	for ; k+4 <= len(gw); k += 4 {
		c0 := cols[k*pdim : (k+1)*pdim]
		c1 := cols[(k+1)*pdim : (k+2)*pdim]
		c2 := cols[(k+2)*pdim : (k+3)*pdim]
		c3 := cols[(k+3)*pdim : (k+4)*pdim]
		var a0, a1, a2, a3 float32
		for p, gv := range g {
			a0 += gv * c0[p]
			a1 += gv * c1[p]
			a2 += gv * c2[p]
			a3 += gv * c3[p]
		}
		gw[k] += a0
		gw[k+1] += a1
		gw[k+2] += a2
		gw[k+3] += a3
	}
	for ; k < len(gw); k++ {
		var acc float32
		for p, cv := range cols[k*pdim : (k+1)*pdim] {
			acc += g[p] * cv
		}
		gw[k] += acc
	}
}

// weightAndColGrad is weightGrad for a layer whose input gradient is
// wanted too: in the same sweep it adds w[k]·g[p] to gradCols[k,p]. Two
// rows a sweep, since each row also carries a store stream.
func weightAndColGrad(gw, w, g, cols, gradCols []float32) {
	pdim := len(g)
	k := 0
	for ; k+2 <= len(gw); k += 2 {
		c0 := cols[k*pdim : (k+1)*pdim]
		c1 := cols[(k+1)*pdim : (k+2)*pdim]
		d0 := gradCols[k*pdim : (k+1)*pdim]
		d1 := gradCols[(k+1)*pdim : (k+2)*pdim]
		w0, w1 := w[k], w[k+1]
		var a0, a1 float32
		for p, gv := range g {
			a0 += gv * c0[p]
			a1 += gv * c1[p]
			d0[p] += w0 * gv
			d1[p] += w1 * gv
		}
		gw[k] += a0
		gw[k+1] += a1
	}
	for ; k < len(gw); k++ {
		colRow := cols[k*pdim : (k+1)*pdim]
		gcRow := gradCols[k*pdim : (k+1)*pdim]
		var acc float32
		wv := w[k]
		for p, gv := range g {
			acc += gv * colRow[p]
			gcRow[p] += wv * gv
		}
		gw[k] += acc
	}
}

// col2im scatters one sample's column-space gradient back to the input
// layout, adding into dst (overlapping windows share input pixels).
func (c *Conv2D) col2im(gradCols, dst []float32, inH, inW, outH, outW int) {
	kk := c.K * c.K
	pdim := outH * outW
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
						dst[dstRow+ix] += gradCols[src+ox]
					}
				}
			}
		}
	}
}

// ReLU is the elementwise rectifier.
type ReLU struct {
	tr *pass
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// reluInto writes max(v, 0) for every element of x into out. Both
// branches store, so out may be a dirty pooled buffer.
func reluInto(x, out *Tensor) {
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor) *Tensor {
	p := begin(&r.tr, x)
	p.out = shaped(p.out, x.Shape...)
	reluInto(x, p.out)
	return p.out
}

// Infer is the inference-only forward; the pooled output is the caller's
// to release.
func (r *ReLU) Infer(x *Tensor) *Tensor {
	out := GetTensorDirty(x.Shape...)
	reluInto(x, out)
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	p := r.tr
	p.dx = shaped(p.dx, grad.Shape...)
	for i, v := range p.x.Data {
		if v > 0 {
			p.dx.Data[i] = grad.Data[i]
		} else {
			p.dx.Data[i] = 0
		}
	}
	return p.dx
}

// Dense is a fully connected layer. Input of any shape is flattened per
// sample (first dimension is the batch).
type Dense struct {
	In, Out int
	w       *Param // (Out, In)
	b       *Param // (Out)
	tr      *pass
}

// NewDense creates a fully connected layer with Xavier-style uniform
// initialization drawn from rng.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, w: newParam(out, in), b: newParam(out)}
	d.w.Val.fillUniform(rng, 1.7/math.Sqrt(float64(in)))
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// forwardInto computes the affine map, one output element per (sample,
// output unit). Every element is written, so out may be a dirty pooled
// buffer.
func (d *Dense) forwardInto(x, out *Tensor, n int) {
	for s := 0; s < n; s++ {
		in := x.Data[s*d.In : (s+1)*d.In]
		for o := 0; o < d.Out; o++ {
			wRow := d.w.Val.Data[o*d.In : (o+1)*d.In]
			acc := d.b.Val.Data[o]
			for i, v := range in {
				acc += wRow[i] * v
			}
			out.Data[s*d.Out+o] = acc
		}
	}
}

// checkInput validates the per-sample feature count and returns the
// batch size.
func (d *Dense) checkInput(x *Tensor) int {
	n := x.Shape[0]
	if x.Len()/n != d.In {
		panic(fmt.Sprintf("nn: %s: input %v has %d features per sample", d.Name(), x.Shape, x.Len()/n))
	}
	return n
}

// Forward implements Layer.
func (d *Dense) Forward(x *Tensor) *Tensor {
	n := d.checkInput(x)
	p := begin(&d.tr, x)
	p.out = shaped(p.out, n, d.Out)
	d.forwardInto(x, p.out, n)
	return p.out
}

// Infer is the inference-only forward: nothing is cached for Backward
// and the pooled output is the caller's to release.
func (d *Dense) Infer(x *Tensor) *Tensor {
	n := d.checkInput(x)
	out := GetTensorDirty(n, d.Out)
	d.forwardInto(x, out, n)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	n := grad.Shape[0]
	x, dx := d.tr.x, d.tr.inputGrad()
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
