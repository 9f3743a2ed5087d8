package vidgen

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ffsva/internal/frame"
)

// TestCaptureDrawsInAnyOrder captures a stream's frames and draws them
// shuffled, reversed and with gaps: each frame's bytes and truth must be
// the ones Next returns for it in sequence. The cases cover a plane
// whose length is not a multiple of the four-byte noise word, the
// noise-free drift-only loop, a scene switch mid-stream, and crowds.
func TestCaptureDrawsInAnyOrder(t *testing.T) {
	odd := Small(5, frame.ClassCar, 0.5)
	odd.W, odd.H = 321, 241
	quiet := Small(9, frame.ClassCar, 0.5)
	quiet.NoiseAmp = 0
	switched := Small(11, frame.ClassCar, 0.5)
	switched.SceneSwitchFrame = 40
	crowd := Small(7, frame.ClassPerson, 1.0)
	const n = 120
	reversed := make([]int, n)
	var gaps []int
	for i := range reversed {
		reversed[i] = n - 1 - i
		if i%3 != 1 {
			gaps = append(gaps, i)
		}
	}
	rng := rand.New(rand.NewSource(26))
	for _, tc := range []struct {
		name     string
		cfg      Config
		minBoxes int // some frame shows at least this many objects
	}{
		{"odd_plane", odd, 1},
		{"no_noise", quiet, 1},
		{"scene_switch", switched, 1},
		{"crowd", crowd, 5},
	} {
		ref := New(tc.cfg)
		want := make([]*frame.Frame, n)
		most := 0
		for i := range want {
			want[i] = ref.Next()
			most = max(most, len(want[i].Truth.Boxes))
		}
		if most < tc.minBoxes {
			t.Fatalf("%s: at most %d objects in a frame, the case needs %d", tc.name, most, tc.minBoxes)
		}
		for _, order := range []struct {
			name string
			idx  []int
		}{{"shuffled", rng.Perm(n)}, {"reversed", reversed}, {"gaps", gaps}} {
			s := New(tc.cfg)
			captured := make([]*frame.Frame, n)
			for i := range captured {
				f := s.Capture()
				if f.Pix != nil {
					t.Fatalf("%s: captured frame %d already has pixels", tc.name, i)
				}
				if f.Seq != want[i].Seq || f.Truth.SceneID != want[i].Truth.SceneID || f.Truth.Lum != want[i].Truth.Lum ||
					!slices.Equal(f.Truth.Boxes, want[i].Truth.Boxes) {
					t.Fatalf("%s: frame %d captured with truth %+v, Next gives %+v", tc.name, i, *f.Truth, *want[i].Truth)
				}
				captured[i] = f
			}
			for _, i := range order.idx {
				f := captured[i]
				f.Draw()
				if !bytes.Equal(f.Pix, want[i].Pix) {
					t.Fatalf("%s, drawn %s: frame %d differs from Next's", tc.name, order.name, i)
				}
				f.Release()
			}
		}
		for _, f := range want {
			f.Release()
		}
	}
}

// TestNoiseJumpIsAddNoiseAdvance: the state capture advances a stream's
// noise generator to is the one addNoise returns after painting the
// frame, for plane lengths on both sides of the four-byte noise word.
func TestNoiseJumpIsAddNoiseAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 1023, 320 * 240, 321 * 241} {
		pix := make([]uint8, n)
		for k := 0; k < 20; k++ {
			st := rng.Uint32() | 1
			if got, want := noiseJump(n).apply(st), addNoise(pix, st, 0, 4); got != want {
				t.Fatalf("n=%d: jump from %#x gives %#x, addNoise %#x", n, st, got, want)
			}
		}
	}
}

// TestCaptureCostsItsRecord: capturing takes no plane from the frame
// pool, a background-only frame costs two allocations (the frame header
// and the draw record that holds its annotation), and Boxes is sized
// exactly.
func TestCaptureCostsItsRecord(t *testing.T) {
	cfg := Small(3, frame.ClassCar, 0.3)
	s := New(cfg)
	gets0, _ := frame.PoolStats()
	withBoxes := 0
	for i := 0; i < 300; i++ {
		f := s.Capture()
		if b := f.Truth.Boxes; len(b) > 0 {
			withBoxes++
			if cap(b) != len(b) {
				t.Fatalf("frame %d: %d boxes in a slice of capacity %d", i, len(b), cap(b))
			}
		}
		f.Release()
	}
	if gets, _ := frame.PoolStats(); gets != gets0 {
		t.Errorf("capturing 300 frames took %d planes from the pool, want 0", gets-gets0)
	}
	if withBoxes == 0 {
		t.Fatal("no frame showed an object")
	}
	quiet := cfg
	quiet.TOR = 0
	s = New(quiet)
	if allocs := testing.AllocsPerRun(100, func() { s.Capture() }); allocs != 2 {
		t.Errorf("capturing a background frame made %v allocations, want 2", allocs)
	}
}
