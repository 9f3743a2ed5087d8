package imgproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ramp(w, h int) *Gray {
	g := NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Set(x, y, uint8((x+y)%256))
		}
	}
	return g
}

func randomGray(r *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(r.Intn(256))
	}
	return g
}

func TestResizeDimensions(t *testing.T) {
	src := ramp(640, 480)
	for _, sz := range [][2]int{{100, 100}, {50, 50}, {416, 416}, {1, 1}, {1280, 720}} {
		dst := Resize(src, sz[0], sz[1])
		if dst.W != sz[0] || dst.H != sz[1] {
			t.Fatalf("Resize to %v: got %dx%d", sz, dst.W, dst.H)
		}
	}
}

func TestResizeIdentity(t *testing.T) {
	src := ramp(64, 48)
	dst := Resize(src, 64, 48)
	for i := range src.Pix {
		if src.Pix[i] != dst.Pix[i] {
			t.Fatalf("identity resize changed pixel %d: %d -> %d", i, src.Pix[i], dst.Pix[i])
		}
	}
}

func TestResizeConstantImageStaysConstant(t *testing.T) {
	src := NewGray(200, 100)
	for i := range src.Pix {
		src.Pix[i] = 137
	}
	for i, p := range Resize(src, 77, 33).Pix {
		if p != 137 {
			t.Fatalf("constant image pixel %d = %d after resize, want 137", i, p)
		}
	}
}

func TestResizePreservesMeanApproximately(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	src := randomGray(r, 300, 200)
	srcMean, _ := MeanStd(src)
	dst := Resize(src, 100, 100)
	dstMean, _ := MeanStd(dst)
	if math.Abs(srcMean-dstMean) > 3 {
		t.Fatalf("mean drifted: src %.2f dst %.2f", srcMean, dstMean)
	}
}

func TestMSEZeroOnIdentical(t *testing.T) {
	g := ramp(100, 100)
	if got := MSE(g, g); got != 0 {
		t.Fatalf("MSE(g,g) = %v, want 0", got)
	}
	if got := SAD(g, g); got != 0 {
		t.Fatalf("SAD(g,g) = %v, want 0", got)
	}
}

func TestMSESymmetryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seedA, seedB int64) bool {
		a := randomGray(rand.New(rand.NewSource(seedA)), 20, 20)
		b := randomGray(rand.New(rand.NewSource(seedB)), 20, 20)
		return MSE(a, b) == MSE(b, a) && SAD(a, b) == SAD(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestMSEKnownValue(t *testing.T) {
	a := NewGray(2, 2)
	b := NewGray(2, 2)
	copy(a.Pix, []uint8{0, 10, 20, 30})
	copy(b.Pix, []uint8{10, 10, 10, 10})
	// diffs: -10, 0, 10, 20 -> squares 100,0,100,400 -> mean 150
	if got := MSE(a, b); got != 150 {
		t.Fatalf("MSE = %v, want 150", got)
	}
	if got := SAD(a, b); got != 40 {
		t.Fatalf("SAD = %v, want 40", got)
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	MSE(NewGray(2, 2), NewGray(3, 3))
}

// dirtyGray returns a w×h image whose every pixel is 0xAA, standing in for
// a dirty pooled destination the …Into kernels must fully overwrite.
func dirtyGray(w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = 0xAA
	}
	return g
}

func TestBinarize(t *testing.T) {
	g := NewGray(3, 1)
	copy(g.Pix, []uint8{10, 100, 200})
	m := dirtyGray(3, 1)
	BinarizeInto(g, 99, m)
	if m.Pix[0] != 0 || m.Pix[1] != 1 || m.Pix[2] != 1 {
		t.Fatalf("Binarize = %v, want [0 1 1]", m.Pix)
	}
}

func TestConnectedComponentsTwoBlobs(t *testing.T) {
	m := NewGray(10, 10)
	// Blob A: 2x2 at (1,1). Blob B: 3x1 at (6,7).
	for _, p := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {6, 7}, {7, 7}, {8, 7}} {
		m.Set(p[0], p[1], 1)
	}
	comps := ConnectedComponents(nil, m, 1)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2: %+v", len(comps), comps)
	}
	a, b := comps[0], comps[1]
	if a.Rect != (Rect{1, 1, 2, 2}) || a.Pixels != 4 {
		t.Fatalf("blob A = %+v", a)
	}
	if b.Rect != (Rect{6, 7, 3, 1}) || b.Pixels != 3 {
		t.Fatalf("blob B = %+v", b)
	}
}

func TestConnectedComponentsMinArea(t *testing.T) {
	m := NewGray(10, 10)
	m.Set(0, 0, 1) // single pixel
	for _, p := range [][2]int{{5, 5}, {6, 5}, {5, 6}, {6, 6}} {
		m.Set(p[0], p[1], 1)
	}
	comps := ConnectedComponents(nil, m, 2)
	if len(comps) != 1 || comps[0].Pixels != 4 {
		t.Fatalf("minArea filter failed: %+v", comps)
	}
}

func TestConnectedComponentsDiagonalNotConnected(t *testing.T) {
	m := NewGray(4, 4)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	comps := ConnectedComponents(nil, m, 1)
	if len(comps) != 2 {
		t.Fatalf("diagonal pixels merged under 4-connectivity: %+v", comps)
	}
}

func TestConnectedComponentsFull(t *testing.T) {
	m := NewGray(8, 8)
	for i := range m.Pix {
		m.Pix[i] = 1
	}
	comps := ConnectedComponents(nil, m, 1)
	if len(comps) != 1 || comps[0].Pixels != 64 || comps[0].Rect != (Rect{0, 0, 8, 8}) {
		t.Fatalf("full mask: %+v", comps)
	}
}

func TestBoxBlurConstant(t *testing.T) {
	g := NewGray(20, 20)
	for i := range g.Pix {
		g.Pix[i] = 99
	}
	b := dirtyGray(20, 20)
	BoxBlur3Into(g, b)
	for i, p := range b.Pix {
		if p != 99 {
			t.Fatalf("blur of constant image changed pixel %d to %d", i, p)
		}
	}
}

func TestBoxBlurSmooths(t *testing.T) {
	g := NewGray(9, 9)
	g.Set(4, 4, 255) // single impulse
	b := dirtyGray(9, 9)
	BoxBlur3Into(g, b)
	if b.At(4, 4) != 255/9 {
		t.Fatalf("impulse center = %d, want %d", b.At(4, 4), 255/9)
	}
	if b.At(0, 0) != 0 {
		t.Fatalf("far pixel affected: %d", b.At(0, 0))
	}
}

func TestMeanStd(t *testing.T) {
	g := NewGray(2, 2)
	copy(g.Pix, []uint8{0, 0, 10, 10})
	mean, std := MeanStd(g)
	if mean != 5 || std != 5 {
		t.Fatalf("MeanStd = (%v, %v), want (5, 5)", mean, std)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := ramp(5, 5)
	c := g.Clone()
	c.Set(0, 0, 200)
	if g.At(0, 0) == 200 {
		t.Fatal("Clone shares pixel storage")
	}
}
