package detect

import (
	"math"
	"reflect"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/vidgen"
)

// emaBits is a stream's background estimate, bit for bit.
func emaBits(t *testing.T, tg *TinyGrid, id int) []uint64 {
	t.Helper()
	tg.mu.Lock()
	defer tg.mu.Unlock()
	st, ok := tg.bg[id]
	if !ok {
		t.Fatalf("stream %d has no background state", id)
	}
	bits := make([]uint64, len(st.ema))
	for i, v := range st.ema {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestSetBackgroundSeedsTheSameBits pins the seeded estimate to what
// SetBackground always produced — float64 of each pixel of the plane's
// resample, 1000 frames of history — on the first call, which resamples,
// and on a later one, which copies the remembered resample.
func TestSetBackgroundSeedsTheSameBits(t *testing.T) {
	tg := NewTinyGrid(DefaultTinyGridConfig())
	bg := vidgen.New(vidgen.Small(1, frame.ClassCar, 0.1)).SharedBackground()
	small := imgproc.Resize(bg, tg.InputSize(), tg.InputSize())
	want := make([]uint64, len(small.Pix))
	for i, p := range small.Pix {
		want[i] = math.Float64bits(float64(p))
	}
	for _, id := range []int{1, 2} {
		tg.SetBackground(id, bg)
		if got := emaBits(t, tg, id); !reflect.DeepEqual(got, want) {
			t.Errorf("stream %d: seeded estimate differs from float64(Resize(bg))", id)
		}
		if n := tg.bg[id].frames; n != 1000 {
			t.Errorf("stream %d: seeded with %d frames of history, want 1000", id, n)
		}
	}
	if len(tg.seeds) != 1 {
		t.Errorf("one background resampled %d times", len(tg.seeds))
	}
}

// TestSeededStreamsAreIndependent seeds two streams of one camera from
// one plane into one detector: fifty detections on stream A, each of
// which adapts A's estimate, must leave B's estimate and B's first
// detections exactly what a detector that only ever saw B has.
func TestSeededStreamsAreIndependent(t *testing.T) {
	cfgA := vidgen.Small(7, frame.ClassPerson, 1.0)
	cfgB := cfgA
	cfgA.StreamID, cfgB.StreamID = 1, 2
	cfgB.Seed, cfgB.BGSeed = 8, cfgA.Seed
	a, b := vidgen.New(cfgA), vidgen.New(cfgB)
	if a.SharedBackground() != b.SharedBackground() {
		t.Fatal("the two streams do not share a background plane")
	}
	shared := NewTinyGrid(DefaultTinyGridConfig())
	shared.SetBackground(1, a.SharedBackground())
	shared.SetBackground(2, b.SharedBackground())
	alone := NewTinyGrid(DefaultTinyGridConfig())
	alone.SetBackground(2, b.Background())

	for i := 0; i < 50; i++ {
		f := a.Next()
		shared.Detect(f)
		f.Release()
	}
	if !reflect.DeepEqual(emaBits(t, shared, 2), emaBits(t, alone, 2)) {
		t.Error("detecting on stream A moved stream B's background estimate")
	}
	// B's frames, up to the first that shows an object.
	seen := false
	for i := 0; i < 100 && !seen; i++ {
		f := b.Next()
		got, want := shared.Detect(f), alone.Detect(f)
		f.Release()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream B frame %d: detections %v, want %v", i, got, want)
		}
		seen = len(want) > 0
	}
	if !seen {
		t.Fatal("degenerate stream: no detection in 100 frames at TOR 1.0")
	}
	if !reflect.DeepEqual(emaBits(t, shared, 2), emaBits(t, alone, 2)) {
		t.Error("stream B's estimate differs after its first frames")
	}
}

// TestSeedMemoGoesByContent checks that a seed is found by the plane's
// pixels — a caller may reuse its plane for another background — and
// that the memo is bounded.
func TestSeedMemoGoesByContent(t *testing.T) {
	tg := NewTinyGrid(DefaultTinyGridConfig())
	plane := imgproc.NewGray(64, 48)
	for n := 0; n < maxSeeds+3; n++ {
		for i := range plane.Pix {
			plane.Pix[i] = uint8(n + i%7)
		}
		tg.SetBackground(n, plane)
		if got, want := emaBits(t, tg, n)[0], math.Float64bits(float64(n)); got != want {
			t.Fatalf("background %d seeded from another plane's resample", n)
		}
	}
	if len(tg.seeds) != maxSeeds {
		t.Errorf("memo holds %d seeds, limit %d", len(tg.seeds), maxSeeds)
	}
	before := len(tg.seeds)
	tg.SetBackground(99, plane.Clone())
	if len(tg.seeds) != before || tg.seeds[before-1].src == plane {
		t.Error("an equal plane was resampled again, or the caller's plane was kept")
	}
}
