package filters

import (
	"math"
	"math/rand"
	"testing"

	"ffsva/internal/imgproc"
)

// luminanceOffsetReference is Distance's luminance pass as it stood before
// ISSUE 21 gave it an integer accumulator, kept verbatim as the
// definition of the right answer.
func luminanceOffsetReference(img, ref *imgproc.Gray) float64 {
	n := float64(len(img.Pix))
	var sum float64
	for i := range img.Pix {
		sum += float64(img.Pix[i]) - float64(ref.Pix[i])
	}
	return sum / n
}

// TestDistanceLuminanceOffsetMatchesReference: the integer sum gives the
// float64 offset of the old float sum, so every distance is the same
// bits — on random planes, on the extremes (±255 at every pixel, the
// largest sums a plane can hold) and at odd sizes.
func TestDistanceLuminanceOffsetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sz := range [][2]int{{1, 1}, {7, 3}, {SNMSize, SNMSize}, {SDDSize, SDDSize}, {416, 416}} {
		for _, mode := range []string{"random", "dark-on-bright", "bright-on-dark", "equal"} {
			img, ref := imgproc.NewGray(sz[0], sz[1]), imgproc.NewGray(sz[0], sz[1])
			for i := range img.Pix {
				switch mode {
				case "random":
					img.Pix[i], ref.Pix[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
				case "dark-on-bright":
					ref.Pix[i] = 255
				case "bright-on-dark":
					img.Pix[i] = 255
				}
			}
			// The distance with the offset removed by hand, in the old
			// loop's order, is what Distance must return.
			offset := luminanceOffsetReference(img, ref)
			var sq, sad float64
			for i := range img.Pix {
				d := float64(img.Pix[i]) - float64(ref.Pix[i]) - offset
				sq += d * d
				sad += math.Abs(d)
			}
			if got, want := Distance(img, ref, MetricMSE), sq/float64(len(img.Pix)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v %s: MSE %v, reference %v", sz, mode, got, want)
			}
			if got := Distance(img, ref, MetricSAD); math.Float64bits(got) != math.Float64bits(sad) {
				t.Errorf("%v %s: SAD %v, reference %v", sz, mode, got, sad)
			}
		}
	}
}
