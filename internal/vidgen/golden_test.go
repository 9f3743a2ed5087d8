package vidgen

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
)

// streamDigest is the FNV-64a of the first n frames of a stream: every
// pixel, then every ground-truth box, scene id and illumination offset.
func streamDigest(cfg Config, n int) uint64 {
	return streamDigestBetween(cfg, n, func(int) {})
}

// streamDigestBetween is streamDigest with between(i) run before the
// stream's frame i is drawn.
func streamDigestBetween(cfg Config, n int, between func(i int)) uint64 {
	s := New(cfg)
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i := 0; i < n; i++ {
		between(i)
		f := s.Next()
		h.Write(f.Pix)
		put(uint64(f.Truth.SceneID))
		put(math.Float64bits(f.Truth.Lum))
		for _, b := range f.Truth.Boxes {
			for _, v := range []int{b.X, b.Y, b.W, b.H, int(b.Class)} {
				put(uint64(v))
			}
			put(math.Float64bits(b.Visible))
		}
		f.Release()
	}
	return h.Sum64()
}

// TestStreamGolden pins the generator's output to digests recorded
// before the render loop was rewritten (ISSUE 14): "same bytes out"
// for the synthetic source, covering a low-TOR car stream, a crowded
// person stream, a larger plane, a plane whose length is not a multiple
// of the four-byte noise word, and the noise-free drift-only loop.
func TestStreamGolden(t *testing.T) {
	odd := Small(5, frame.ClassCar, 0.3)
	odd.W, odd.H = 321, 241
	quiet := Small(9, frame.ClassCar, 0.3)
	quiet.NoiseAmp = 0
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"small_car_tor0.1", Small(1, frame.ClassCar, 0.1), goldenSmallCar},
		{"small_person_tor1.0", Small(7, frame.ClassPerson, 1.0), goldenSmallPerson},
		{"jackson", Jackson(3), goldenJackson},
		{"odd_plane", odd, goldenOddPlane},
		{"no_noise", quiet, goldenNoNoise},
	} {
		if got := streamDigest(tc.cfg, 300); got != tc.want {
			t.Errorf("%s: digest %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

// TestSiblingsShareBackgroundSafely pins what sharing one background
// plane per viewpoint must not change: a stream's bytes are the recorded
// ones although siblings of the same viewpoint are minted and run
// between its frames, one of them switching scene on the way — which
// replaces that sibling's plane and writes to nobody's.
func TestSiblingsShareBackgroundSafely(t *testing.T) {
	cfg := Small(1, frame.ClassCar, 0.1)
	want := makeBackground(cfg.W, cfg.H, cfg.Seed)
	var plain, switching *Stream
	got := streamDigestBetween(cfg, 300, func(i int) {
		switch i {
		case 1:
			sib := cfg
			sib.Seed, sib.BGSeed = 77, cfg.Seed
			plain = New(sib)
			sib.Seed, sib.SceneSwitchFrame = 78, 5
			switching = New(sib)
		case 2, 3:
			for j := 0; j < 10; j++ {
				plain.Next().Release()
				switching.Next().Release()
			}
		}
	})
	if got != goldenSmallCar {
		t.Errorf("digest %016x with siblings minted between frames, want %016x", got, goldenSmallCar)
	}
	first := New(cfg)
	if plain.SharedBackground() != first.SharedBackground() {
		t.Error("two streams of one viewpoint hold different background planes")
	}
	if switching.SharedBackground() == first.SharedBackground() {
		t.Error("the stream that switched scene still holds the viewpoint's plane")
	}
	if !bytes.Equal(first.SharedBackground().Pix, want.Pix) {
		t.Error("the shared background changed while siblings rendered and switched scene")
	}
	if own := first.Background(); own == first.SharedBackground() || !bytes.Equal(own.Pix, want.Pix) {
		t.Error("Background must return an equal copy, not the shared plane")
	}
}

// TestBackgroundMemoIsBounded checks that the memo evicts and that an
// evicted viewpoint is simply rendered again, to the same pixels.
func TestBackgroundMemoIsBounded(t *testing.T) {
	first := background(32, 24, 1000)
	for seed := int64(1001); seed < 1001+maxBackgrounds; seed++ {
		background(32, 24, seed)
	}
	backgrounds.Lock()
	n := len(backgrounds.planes)
	backgrounds.Unlock()
	if n > maxBackgrounds {
		t.Fatalf("memo holds %d planes, limit %d", n, maxBackgrounds)
	}
	again := background(32, 24, 1000)
	if again == first {
		t.Error("the oldest viewpoint was not evicted")
	}
	if !bytes.Equal(again.Pix, first.Pix) {
		t.Error("a re-rendered viewpoint differs from its first rendering")
	}
}

// TestConcurrentMint mints streams of one cold and one warm viewpoint
// from eight goroutines; run it under -race.
func TestConcurrentMint(t *testing.T) {
	cfg := Small(31, frame.ClassCar, 0.3)
	cfg.W, cfg.H = 64, 48
	var wg sync.WaitGroup
	planes := make([]*imgproc.Gray, 8)
	for g := range planes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Seed, c.BGSeed = int64(100+g), cfg.Seed
			for i := 0; i < 20; i++ {
				s := New(c)
				s.Next().Release()
				planes[g] = s.SharedBackground()
			}
		}()
	}
	wg.Wait()
	for g, p := range planes {
		if p != planes[0] {
			t.Errorf("goroutine %d minted from a different plane", g)
		}
	}
}

// Recorded at commit bfffb9b (the parent of the kernel rewrite).
const (
	goldenSmallCar    uint64 = 0xf058600f9f4c8529
	goldenSmallPerson uint64 = 0x1b5e26acca283f87
	goldenJackson     uint64 = 0x94ca9f09d3722924
	goldenOddPlane    uint64 = 0x70cadc74f13b9aac
	goldenNoNoise     uint64 = 0xa9a4b93e54910f3b
)
