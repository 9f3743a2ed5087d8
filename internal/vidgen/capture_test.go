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
// pool, and a capture released at its verdict hands its record and its
// header back, so once the free lists are warm a capture costs no
// allocation at all — on background frames and on frames that show
// objects, whose Boxes reuse the recycled record's capacity. Until the
// record and header were recycled, a background frame cost two
// allocations (the header and the record holding its annotation).
func TestCaptureCostsItsRecord(t *testing.T) {
	cfg := Small(3, frame.ClassCar, 0.3)
	s := New(cfg)
	gets0, _ := frame.PoolStats()
	withBoxes := 0
	for i := 0; i < 300; i++ {
		f := s.Capture()
		if len(f.Truth.Boxes) > 0 {
			withBoxes++
		}
		f.Release()
	}
	if gets, _ := frame.PoolStats(); gets != gets0 {
		t.Errorf("capturing 300 frames took %d planes from the pool, want 0", gets-gets0)
	}
	if withBoxes == 0 {
		t.Fatal("no frame showed an object")
	}
	if allocs := testing.AllocsPerRun(300, func() { s.Capture().Release() }); allocs != 0 {
		t.Errorf("a warm capture of a stream at TOR %v made %v allocations, want 0", cfg.TOR, allocs)
	}
	quiet := cfg
	quiet.TOR = 0
	s = New(quiet)
	if allocs := testing.AllocsPerRun(100, func() { s.Capture().Release() }); allocs != 0 {
		t.Errorf("a warm capture of a background frame made %v allocations, want 0", allocs)
	}
}

// TestReleaseRecyclesOnlyWhatItClears: Release clears every field of a
// captured frame, Truth included, before its header and record are
// filed, and a record is never reused while the frame whose Truth
// points into it is unreleased: captures in between take other records.
// The header and record lists each balance their gets and puts.
func TestReleaseRecyclesOnlyWhatItClears(t *testing.T) {
	s := New(Small(8, frame.ClassPerson, 1.0))
	hg0, hp0 := frame.HeaderStats()
	rg0, rp0 := RecordStats()
	captures := 1
	held := s.Next()
	for ; len(held.Truth.Boxes) == 0; captures++ {
		held.Release()
		held = s.Next()
	}
	truth := held.Truth
	want := *truth
	want.Boxes = slices.Clone(truth.Boxes)
	for i := 0; i < 50; i++ {
		captures++
		f := s.Next()
		if f == held || f.Truth == truth {
			t.Fatalf("capture %d reused the header or record of a frame not yet released", i)
		}
		f.Release()
	}
	if held.Truth != truth || truth.SceneID != want.SceneID || truth.Lum != want.Lum || !slices.Equal(truth.Boxes, want.Boxes) {
		t.Fatal("a held frame's truth changed while other frames were captured and released")
	}
	held.Release()
	if held.Truth != nil || held.Pix != nil || held.W != 0 || held.H != 0 || held.Seq != 0 || held.StreamID != 0 || held.Trace != nil || len(held.Cands) != 0 {
		t.Fatalf("a released frame keeps fields: %+v", *held)
	}
	held.Draw()
	if held.Pix != nil {
		t.Fatal("a released frame was drawn")
	}
	// LIFO: the next capture takes the header and record just filed.
	next := s.Capture()
	captures++
	if next != held || next.Truth != truth {
		t.Fatal("the next capture did not reuse the header and record just released")
	}
	next.Release()
	if g, p := frame.HeaderStats(); g-hg0 != int64(captures) || p-hp0 != int64(captures) {
		t.Errorf("frame headers: %d gets, %d puts, want %d of each", g-hg0, p-hp0, captures)
	}
	if g, p := RecordStats(); g-rg0 != int64(captures) || p-rp0 != int64(captures) {
		t.Errorf("draw records: %d gets, %d puts, want %d of each", g-rg0, p-rp0, captures)
	}
}
