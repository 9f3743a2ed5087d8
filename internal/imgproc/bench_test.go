package imgproc

import (
	"math/rand"
	"testing"
)

func benchImage(w, h int) *Gray {
	r := rand.New(rand.NewSource(1))
	return randomGray(r, w, h)
}

func BenchmarkResizeTo100(b *testing.B) {
	src := benchImage(320, 240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Resize(src, 100, 100)
	}
}

func BenchmarkResizeTo208(b *testing.B) {
	src := benchImage(320, 240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Resize(src, 208, 208)
	}
}

func BenchmarkMSE100(b *testing.B) {
	a := benchImage(100, 100)
	c := benchImage(100, 100)
	for i := 0; i < b.N; i++ {
		MSE(a, c)
	}
}

func BenchmarkSAD100(b *testing.B) {
	a := benchImage(100, 100)
	c := benchImage(100, 100)
	for i := 0; i < b.N; i++ {
		SAD(a, c)
	}
}

func BenchmarkBoxBlur3(b *testing.B) {
	g := benchImage(208, 208)
	out := NewGray(208, 208)
	for i := 0; i < b.N; i++ {
		BoxBlur3Into(g, out)
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := NewGray(208, 208)
	// A few rectangular blobs.
	for _, r := range []Rect{{10, 10, 40, 20}, {100, 80, 30, 30}, {150, 150, 50, 25}} {
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				g.Set(x, y, 1)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConnectedComponents(nil, g, 10)
	}
}

func benchResizeInto(b *testing.B, side int) {
	src := benchImage(320, 240)
	dst := NewGray(side, side)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResizeInto(src, dst)
	}
}

func BenchmarkResizeInto50(b *testing.B)  { benchResizeInto(b, 50) }
func BenchmarkResizeInto100(b *testing.B) { benchResizeInto(b, 100) }
func BenchmarkResizeInto208(b *testing.B) { benchResizeInto(b, 208) }
