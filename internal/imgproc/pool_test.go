package imgproc

import (
	"math/rand"
	"testing"
)

func noisyGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

// TestGrayPoolReuse checks the pooled planes honour the dirty-buffer
// contract: a recycled plane may hold garbage, and ResizeInto must
// overwrite all of it.
func TestGrayPoolReuse(t *testing.T) {
	g := GetGray(100, 100)
	for i := range g.Pix {
		g.Pix[i] = 0xAB // poison
	}
	g.Release()

	src := noisyGray(rand.New(rand.NewSource(9)), 200, 150)
	dst := GetGray(100, 100) // likely the poisoned plane back
	defer dst.Release()
	ResizeInto(src, dst)
	want := Resize(src, 100, 100)
	for i := range want.Pix {
		if dst.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel %d: got %d want %d (stale pool data leaked)", i, dst.Pix[i], want.Pix[i])
		}
	}
}
