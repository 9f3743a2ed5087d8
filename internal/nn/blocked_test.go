package nn

import (
	"math/rand"
	"testing"

	"ffsva/internal/par"
)

// naiveConvRef is the unblocked reference matmul the blocked kernel
// must reproduce bit for bit: per output element, bias first, then k
// ascending with exact-zero weights skipped. It re-uses im2colInto so
// only the matmul differs from the production path.
func naiveConvRef(c *Conv2D, x *Tensor) *Tensor {
	n := x.Shape[0]
	inH, inW := x.Shape[2], x.Shape[3]
	outH, outW := c.OutSize(inH, inW)
	kdim := c.InC * c.K * c.K
	pdim := outH * outW
	sampleIn := c.InC * inH * inW
	sampleOut := c.OutC * pdim
	out := NewTensor(n, c.OutC, outH, outW)
	cols := NewTensor(kdim, pdim)
	for s := 0; s < n; s++ {
		c.im2colInto(x.Data[s*sampleIn:(s+1)*sampleIn], inH, inW, outH, outW, cols.Data)
		for oc := 0; oc < c.OutC; oc++ {
			dst := out.Data[s*sampleOut+oc*pdim : s*sampleOut+(oc+1)*pdim]
			for i := range dst {
				dst[i] = c.b.Val.Data[oc]
			}
			wRow := c.w.Val.Data[oc*kdim : (oc+1)*kdim]
			for k := 0; k < kdim; k++ {
				wv := wRow[k]
				if wv == 0 {
					continue
				}
				colRow := cols.Data[k*pdim : (k+1)*pdim]
				for p, cv := range colRow {
					dst[p] += wv * cv
				}
			}
		}
	}
	return out
}

// TestConvBlockMatchesScalarReference pins the register/cache-blocked
// matmul to the scalar kernel it replaced: same bias-then-ascending-k
// accumulation per element, same zero-weight skips, across shapes that
// exercise the channel-quad tail (OutC % 4 != 0) and the position-panel
// boundary (pdim > convPanel), at several pool widths.
func TestConvBlockMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name           string
		inC, outC      int
		k, stride, pad int
		h, w           int
	}{
		{"quad_tail", 3, 10, 3, 1, 1, 17, 19},
		{"panel_split", 3, 8, 3, 1, 1, 40, 44}, // pdim=1760 > convPanel
		{"snm_conv1", 1, 6, 5, 3, 2, 50, 50},
		{"single_channel", 2, 1, 3, 2, 1, 23, 23},
	}
	for _, tc := range cases {
		c := NewConv2D(rng, tc.inC, tc.outC, tc.k, tc.stride, tc.pad)
		// Plant exact zeros so the per-channel skip paths execute.
		kdim := tc.inC * tc.k * tc.k
		for oc := 0; oc < tc.outC; oc++ {
			c.w.Val.Data[oc*kdim+(oc%kdim)] = 0
		}
		x := randTensor(rng, 2, tc.inC, tc.h, tc.w)
		want := naiveConvRef(c, x)
		for _, width := range []int{1, 2, 3, 8} {
			prev := par.SetWorkers(width)
			got := c.Infer(x)
			fwd := c.Forward(x)
			par.SetWorkers(prev)
			bitwiseEqual(t, tc.name+".Infer", want, got)
			bitwiseEqual(t, tc.name+".Forward", want, fwd)
			got.Release()
		}
	}
}
