package detect

import (
	"math"
	"math/rand"
	"testing"

	"ffsva/internal/imgproc"
)

// diffAndAdaptReference is Detect's foreground/EMA loop as it stood
// before ISSUE 14: sign by branch, indexed through the images.
func diffAndAdaptReference(pix []uint8, ema []float64, out []uint8, alpha float64) {
	for i := range pix {
		p := float64(pix[i])
		d := p - ema[i]
		if d < 0 {
			d = -d
		}
		if d > 255 {
			d = 255
		}
		out[i] = uint8(d)
		ema[i] += alpha * (p - ema[i])
	}
}

// integralReference and boxSumReference are the summed-area table the
// confidence mean used to be read from.
func integralReference(g *imgproc.Gray) []uint64 {
	w1 := g.W + 1
	tab := make([]uint64, w1*(g.H+1))
	for y := 1; y <= g.H; y++ {
		var rowSum uint64
		for x := 1; x <= g.W; x++ {
			rowSum += uint64(g.Pix[(y-1)*g.W+(x-1)])
			tab[y*w1+x] = tab[(y-1)*w1+x] + rowSum
		}
	}
	return tab
}

func boxSumReference(g *imgproc.Gray, tab []uint64, r imgproc.Rect) uint64 {
	x0, y0 := max(r.X, 0), max(r.Y, 0)
	x1, y1 := min(r.X+r.W, g.W), min(r.Y+r.H, g.H)
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	w1 := g.W + 1
	return tab[y1*w1+x1] - tab[y0*w1+x1] - tab[y1*w1+x0] + tab[y0*w1+x0]
}

// TestDiffAndAdaptMatchesReference iterates both loops from one start
// over many frames, so a one-ulp difference in the background would
// compound and show; it includes backgrounds outside [0, 255] and exact
// ties.
func TestDiffAndAdaptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 5003
	want, got := make([]float64, n), make([]float64, n)
	for i := range want {
		switch i % 4 {
		case 0:
			want[i] = float64(rng.Intn(256))
		case 1:
			want[i] = rng.Float64()*300 - 20
		default:
			want[i] = rng.Float64() * 255
		}
	}
	copy(got, want)
	pix := make([]uint8, n)
	wantOut, gotOut := make([]uint8, n), make([]uint8, n)
	for frame := 0; frame < 60; frame++ {
		for i := range pix {
			pix[i] = uint8(rng.Intn(256))
		}
		alpha := 0.04
		if frame < 20 {
			alpha = 0.15
		}
		diffAndAdaptReference(pix, want, wantOut, alpha)
		diffAndAdapt(pix, got, gotOut, alpha)
		for i := range want {
			if gotOut[i] != wantOut[i] || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("frame %d cell %d: diff %d ema %v, want diff %d ema %v",
					frame, i, gotOut[i], got[i], wantOut[i], want[i])
			}
		}
	}
}

func TestRectSumMatchesIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := imgproc.NewGray(61, 47)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	tab := integralReference(g)
	for i := 0; i < 500; i++ {
		x, y := rng.Intn(g.W), rng.Intn(g.H)
		r := imgproc.Rect{X: x, Y: y, W: 1 + rng.Intn(g.W-x), H: 1 + rng.Intn(g.H-y)}
		if got, want := rectSum(g, r), boxSumReference(g, tab, r); got != want {
			t.Fatalf("rectSum(%+v) = %d, want %d", r, got, want)
		}
	}
	whole := imgproc.Rect{W: g.W, H: g.H}
	if got, want := rectSum(g, whole), boxSumReference(g, tab, whole); got != want {
		t.Fatalf("rectSum(whole) = %d, want %d", got, want)
	}
}
