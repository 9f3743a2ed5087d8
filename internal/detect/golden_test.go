package detect

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

// detectDigest is the FNV-64a of every detection (box, class, confidence
// bits) a fresh detector reports over the first n frames of a stream,
// frame by frame with the per-frame count. seeded selects between a
// detector primed with the true background and a cold one, which builds
// its background from the first frame and runs the fast warm-up rate.
func detectDigest(cfg vidgen.Config, n int, seeded bool) (digest uint64, dets int) {
	s := vidgen.New(cfg)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	if seeded {
		tg.SetBackground(cfg.StreamID, s.Background())
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i := 0; i < n; i++ {
		f := s.Next()
		out := tg.Detect(f)
		put(uint64(len(out)))
		for _, d := range out {
			for _, v := range []int{d.Box.X, d.Box.Y, d.Box.W, d.Box.H, int(d.Class)} {
				put(uint64(v))
			}
			put(math.Float64bits(d.Conf))
		}
		dets += len(out)
		f.Release()
	}
	return h.Sum64(), dets
}

// TestTinyGridGolden pins the detector's output — which is the resize,
// the diff/EMA pass, the blur, the labelling and the confidence mean all
// at once — to digests recorded before those kernels were rewritten
// (ISSUE 14).
func TestTinyGridGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      vidgen.Config
		seeded   bool
		want     uint64
		wantDets int
	}{
		{"person_tor1.0_seeded", vidgen.Small(7, frame.ClassPerson, 1.0), true, goldenPersonSeeded, goldenPersonSeededDets},
		{"car_tor0.1_seeded", vidgen.Small(1, frame.ClassCar, 0.1), true, goldenCarSeeded, goldenCarSeededDets},
		{"car_tor0.1_cold", vidgen.Small(1, frame.ClassCar, 0.1), false, goldenCarCold, goldenCarColdDets},
	} {
		got, dets := detectDigest(tc.cfg, 400, tc.seeded)
		if got != tc.want || dets != tc.wantDets {
			t.Errorf("%s: digest %016x over %d detections, want %016x over %d",
				tc.name, got, dets, tc.want, tc.wantDets)
		}
	}
}

// Recorded at commit bfffb9b (the parent of the kernel rewrite).
const (
	goldenPersonSeeded     uint64 = 0xf1c64c0cf37a11eb
	goldenPersonSeededDets        = 1000
	goldenCarSeeded        uint64 = 0x9cd9e85c337c1d48
	goldenCarSeededDets           = 130
	goldenCarCold          uint64 = 0xcb4253183a1ce7e5
	goldenCarColdDets             = 130
)
