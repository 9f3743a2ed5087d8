package imgproc

import (
	"math"
	"math/rand"
	"testing"
)

// The functions below are the kernels as they stood before ISSUE 14
// rewrote them, kept verbatim as the definition of the right answer:
// the rewrite claims the same bytes out, and these tests are that claim.

func clampReference(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func resizeRowReference(src *Gray, w, y int, xRatio, yRatio float64, dst []uint8) {
	sy := (float64(y)+0.5)*yRatio - 0.5
	y0 := int(math.Floor(sy))
	fy := sy - float64(y0)
	y1 := y0 + 1
	if y0 < 0 {
		y0, y1, fy = 0, 0, 0
	}
	if y1 >= src.H {
		y1 = src.H - 1
		if y0 > y1 {
			y0 = y1
		}
	}
	row0 := src.Pix[y0*src.W:]
	row1 := src.Pix[y1*src.W:]
	for x := 0; x < w; x++ {
		sx := (float64(x)+0.5)*xRatio - 0.5
		x0 := int(math.Floor(sx))
		fx := sx - float64(x0)
		x1 := x0 + 1
		if x0 < 0 {
			x0, x1, fx = 0, 0, 0
		}
		if x1 >= src.W {
			x1 = src.W - 1
			if x0 > x1 {
				x0 = x1
			}
		}
		top := float64(row0[x0])*(1-fx) + float64(row0[x1])*fx
		bot := float64(row1[x0])*(1-fx) + float64(row1[x1])*fx
		v := top*(1-fy) + bot*fy
		dst[x] = uint8(math.Round(clampReference(v, 0, 255)))
	}
}

func resizeReference(src *Gray, w, h int) *Gray {
	dst := NewGray(w, h)
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return dst
	}
	xRatio := float64(src.W) / float64(w)
	yRatio := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		resizeRowReference(src, w, y, xRatio, yRatio, dst.Pix[y*w:(y+1)*w])
	}
	return dst
}

func boxBlur3Reference(g *Gray) *Gray {
	out := NewGray(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var sum, n int
			for dy := -1; dy <= 1; dy++ {
				yy := y + dy
				if yy < 0 || yy >= g.H {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					xx := x + dx
					if xx < 0 || xx >= g.W {
						continue
					}
					sum += int(g.Pix[yy*g.W+xx])
					n++
				}
			}
			out.Pix[y*g.W+x] = uint8(sum / n)
		}
	}
	return out
}

// connectedComponentsReference is the labelling with its own visited
// plane and growing stack.
func connectedComponentsReference(mask *Gray, minArea int) []Component {
	visited := make([]bool, len(mask.Pix))
	var comps []Component
	var stack []int
	push := func(idx int) {
		if mask.Pix[idx] != 0 && !visited[idx] {
			visited[idx] = true
			stack = append(stack, idx)
		}
	}
	for start, p := range mask.Pix {
		if p == 0 || visited[start] {
			continue
		}
		minX, minY := mask.W, mask.H
		maxX, maxY := -1, -1
		count := 0
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := idx%mask.W, idx/mask.W
			count++
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
			if x > 0 {
				push(idx - 1)
			}
			if x < mask.W-1 {
				push(idx + 1)
			}
			if y > 0 {
				push(idx - mask.W)
			}
			if y < mask.H-1 {
				push(idx + mask.W)
			}
		}
		if count >= minArea {
			comps = append(comps, Component{
				Rect:   Rect{X: minX, Y: minY, W: maxX - minX + 1, H: maxY - minY + 1},
				Pixels: count,
			})
		}
	}
	return comps
}

// structuredGray is a plane of flat runs, hard edges and saturated
// pixels — the inputs on which interpolated values land exactly on
// integers and halves.
func structuredGray(w, h int) *Gray {
	g := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var v uint8
			switch {
			case (x/3+y/2)%4 == 0:
				v = 255
			case (x/3+y/2)%4 == 1:
				v = 0
			case (x+y)%2 == 0:
				v = 127
			default:
				v = 128
			}
			g.Pix[y*w+x] = v
		}
	}
	return g
}

func samePixels(t *testing.T, what string, got, want []uint8) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pixels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pixel %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func checkResizeMatchesReference(t *testing.T, src *Gray, w, h int) {
	t.Helper()
	want := resizeReference(src, w, h)
	got := GetGray(w, h)
	defer got.Release()
	for i := range got.Pix {
		got.Pix[i] = 0xCD // poison: every pixel must be overwritten
	}
	ResizeInto(src, got)
	samePixels(t, "ResizeInto", got.Pix, want.Pix)
}

func TestResizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sources := [][2]int{{320, 240}, {600, 400}, {1280, 720}, {1, 1}, {2, 3}, {7, 5}}
	for _, sz := range sources {
		sw, sh := sz[0], sz[1]
		targets := [][2]int{{50, 50}, {100, 100}, {208, 208}, {416, 416},
			{sw, sh}, {2*sw + 1, 3*sh + 2}}
		for _, src := range []*Gray{noisyGray(rng, sw, sh), structuredGray(sw, sh)} {
			for _, tg := range targets {
				checkResizeMatchesReference(t, src, tg[0], tg[1])
			}
		}
	}
}

func checkBlurMatchesReference(t *testing.T, g *Gray) {
	t.Helper()
	want := boxBlur3Reference(g)
	got := GetGray(g.W, g.H)
	defer got.Release()
	for i := range got.Pix {
		got.Pix[i] = 0xCD
	}
	BoxBlur3Into(g, got)
	samePixels(t, "BoxBlur3Into", got.Pix, want.Pix)
}

func TestBoxBlur3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sizes [][2]int
	for w := 1; w <= 4; w++ {
		for h := 1; h <= 4; h++ {
			sizes = append(sizes, [2]int{w, h})
		}
	}
	sizes = append(sizes, [2]int{208, 208}, [2]int{209, 207}, [2]int{3, 40}, [2]int{40, 3})
	for _, sz := range sizes {
		for _, g := range []*Gray{noisyGray(rng, sz[0], sz[1]), structuredGray(sz[0], sz[1])} {
			checkBlurMatchesReference(t, g)
		}
	}
}

// TestRoundToUint8MatchesMathRound walks every integer and every half in
// the 8-bit range, with the floats on either side of each, plus the
// values where a shortcut would differ.
func TestRoundToUint8MatchesMathRound(t *testing.T) {
	want := func(v float64) uint8 { return uint8(math.Round(clampReference(v, 0, 255))) }
	var vs []float64
	for k := 0; k <= 255; k++ {
		for _, v := range []float64{float64(k), float64(k) + 0.5} {
			vs = append(vs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
	}
	vs = append(vs, 0.49999999999999994, -1e-9, 255.00000000000003,
		-0.5, -300, 300, math.Copysign(0, -1), math.Inf(1), math.Inf(-1))
	for _, v := range vs {
		if got := roundToUint8(v); got != want(v) {
			t.Errorf("roundToUint8(%v) = %d, want %d", v, got, want(v))
		}
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 200_000; i++ {
		v := rng.Float64()*258 - 1.5
		if got := roundToUint8(v); got != want(v) {
			t.Fatalf("roundToUint8(%v) = %d, want %d", v, got, want(v))
		}
	}
}

// TestRoundToUint8AroundEveryTieAndBinadeEdge walks the places where
// uint8(v+0.5) could part from round-half-away: 64 ulps either side of
// every quarter step k, k+¼, k+½, k+¾ of the output range, and of every
// power of two from 2⁻⁶⁰ to 2⁸, where ulp(v) doubles and the sum v+0.5
// may have to round. The one input the shortcut gets wrong,
// 0.49999999999999994, sits one ulp under the first tie and is covered.
func TestRoundToUint8AroundEveryTieAndBinadeEdge(t *testing.T) {
	want := func(v float64) uint8 { return uint8(math.Round(clampReference(v, 0, 255))) }
	var centres []float64
	for q := -4; q <= 4*256+4; q++ {
		centres = append(centres, float64(q)/4)
	}
	for e := -60; e <= 8; e++ {
		centres = append(centres, math.Ldexp(1, e))
	}
	for _, c := range centres {
		lo, hi := c, c
		for i := 0; i <= 64; i++ {
			for _, v := range []float64{lo, hi} {
				if got := roundToUint8(v); got != want(v) {
					t.Fatalf("roundToUint8(%v) = %d, want %d (%d ulps from %v)", v, got, want(v), i, c)
				}
			}
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
	}
	if got := roundToUint8(math.NaN()); got != 0 {
		t.Errorf("roundToUint8(NaN) = %d, want 0", got)
	}
}

func TestConnectedComponentsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, sz := range [][2]int{{1, 1}, {5, 1}, {1, 5}, {17, 13}, {208, 208}} {
		for _, density := range []float64{0, 0.3, 0.6, 1} {
			m := NewGray(sz[0], sz[1])
			for i := range m.Pix {
				if rng.Float64() < density {
					m.Pix[i] = uint8(1 + rng.Intn(255))
				}
			}
			for _, minArea := range []int{1, 4} {
				want := connectedComponentsReference(m, minArea)
				// Twice, so the second call labels on recycled scratch.
				for pass := 0; pass < 2; pass++ {
					got := ConnectedComponents(m, minArea)
					if len(got) != len(want) {
						t.Fatalf("%v density %v: %d components, want %d", sz, density, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v density %v: component %d = %+v, want %+v", sz, density, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// fuzzPlane cuts a w×h plane out of fuzz bytes, repeating them when
// they run short.
func fuzzPlane(data []byte, w, h int) *Gray {
	g := NewGray(w, h)
	if len(data) == 0 {
		return g
	}
	for i := range g.Pix {
		g.Pix[i] = data[i%len(data)]
	}
	return g
}

func FuzzResizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 255, 127, 128}, uint8(7), uint8(5), uint8(3), uint8(11))
	f.Add([]byte{1, 2, 3, 250, 251, 252}, uint8(1), uint8(1), uint8(9), uint8(9))
	f.Add([]byte("the quick brown fox"), uint8(64), uint8(48), uint8(20), uint8(15))
	f.Add([]byte{255, 0}, uint8(2), uint8(3), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, sw, sh, dw, dh uint8) {
		src := fuzzPlane(data, int(sw)%96+1, int(sh)%96+1)
		w, h := int(dw)%128+1, int(dh)%128+1
		checkResizeMatchesReference(t, src, w, h)
	})
}

func FuzzBoxBlur3MatchesReference(f *testing.F) {
	f.Add([]byte{0, 255, 127, 128}, uint8(7), uint8(5))
	f.Add([]byte{9}, uint8(1), uint8(1))
	f.Add([]byte{255, 255, 255, 254, 1, 0}, uint8(3), uint8(3))
	f.Add([]byte("sphinx of black quartz"), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, w, h uint8) {
		g := fuzzPlane(data, int(w)%96+1, int(h)%96+1)
		checkBlurMatchesReference(t, g)
	})
}
