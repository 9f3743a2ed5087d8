package imgproc

import (
	"math/rand"
	"sync"
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

// TestGrayHeadersSurviveConcurrentReuse: goroutines borrow and release
// pooled images of a few sizes through the one header list and plane
// pool, as the SNM and T-YOLO stages of a pipeline do. Each holder
// stamps its images and checks them before release, so a header or
// plane handed to two holders at once shows here (and under -race),
// and every plane taken comes back.
func TestGrayHeadersSurviveConcurrentReuse(t *testing.T) {
	planeGets0, planePuts0 := PoolStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			held := make([]*Gray, 0, 5)
			for iter := 0; iter < 300; iter++ {
				w := 16 + iter%3
				img := GetGray(w, 9)
				if img.W != w || img.H != 9 || len(img.Pix) != w*9 {
					t.Errorf("goroutine %d: GetGray(%d, 9) gave %dx%d with %d pixels", g, w, img.W, img.H, len(img.Pix))
					return
				}
				for i := range img.Pix {
					img.Pix[i] = uint8(g)
				}
				held = append(held, img)
				if len(held) < cap(held) {
					continue
				}
				for _, h := range held {
					if h.Pix[0] != uint8(g) || h.Pix[len(h.Pix)-1] != uint8(g) {
						t.Errorf("goroutine %d: a held image was changed by another holder", g)
						return
					}
					h.Release()
				}
				held = held[:0]
			}
		}(g)
	}
	wg.Wait()
	if gets, puts := PoolStats(); gets-planeGets0 != 8*300 || puts-planePuts0 != 8*300 {
		t.Fatalf("planes: %d taken, %d returned, want %d each", gets-planeGets0, puts-planePuts0, 8*300)
	}
}
