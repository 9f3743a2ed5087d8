package imgproc

import (
	"math/rand"
	"testing"
)

// TestResizeMSEMatchesTwoPass proves the fused resize+score kernel is
// bitwise-identical to ResizeInto followed by MSE — both the returned
// distance and every pixel it writes — including the equal-size copy
// fast path and odd shapes.
func TestResizeMSEMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name       string
		srcW, srcH int
		dstW, dstH int
	}{
		{"downscale_sdd", 601, 403, 100, 100},
		{"upscale", 37, 23, 160, 90},
		{"same_size", 128, 64, 128, 64},
		{"single_row_chunks", 300, 7, 50, 5},
	}
	for _, tc := range cases {
		src := noisyGray(rng, tc.srcW, tc.srcH)
		ref := noisyGray(rng, tc.dstW, tc.dstH)

		want := NewGray(tc.dstW, tc.dstH)
		ResizeInto(src, want)
		wantMSE := MSE(want, ref)

		got := GetGray(tc.dstW, tc.dstH)
		for i := range got.Pix {
			got.Pix[i] = 0xCD // poison: every pixel must be overwritten
		}
		gotMSE := ResizeMSE(src, got, ref)
		if gotMSE != wantMSE {
			t.Fatalf("%s: ResizeMSE = %v, two-pass = %v", tc.name, gotMSE, wantMSE)
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%s: pixel %d = %d, want %d", tc.name, i, got.Pix[i], want.Pix[i])
			}
		}
		got.Release()
	}
}
