package vidgen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ffsva/internal/frame"
)

// streamDigest is the FNV-64a of the first n frames of a stream: every
// pixel, then every ground-truth box, scene id and illumination offset.
func streamDigest(cfg Config, n int) uint64 {
	s := New(cfg)
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i := 0; i < n; i++ {
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

// Recorded at commit bfffb9b (the parent of the kernel rewrite).
const (
	goldenSmallCar    uint64 = 0xf058600f9f4c8529
	goldenSmallPerson uint64 = 0x1b5e26acca283f87
	goldenJackson     uint64 = 0x94ca9f09d3722924
	goldenOddPlane    uint64 = 0x70cadc74f13b9aac
	goldenNoNoise     uint64 = 0xa9a4b93e54910f3b
)
