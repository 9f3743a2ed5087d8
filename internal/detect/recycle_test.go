package detect

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

// personFrames returns n drawn frames of a busy person stream and its
// background plane: at TOR 1.0 the detector reports objects, adapts its
// estimate and fills its component list on most of them.
func personFrames(t *testing.T, n int) ([]*frame.Frame, *vidgen.Stream) {
	t.Helper()
	s := vidgen.New(vidgen.Small(7, frame.ClassPerson, 1.0))
	frames := vidgen.Generate(s, n)
	found := 0
	probe := NewTinyGrid(DefaultTinyGridConfig())
	probe.SetBackground(frames[0].StreamID, s.SharedBackground())
	for _, f := range frames {
		found += len(probe.Detect(f))
	}
	if found == 0 {
		t.Fatalf("no detection in %d frames at TOR 1.0; pick another seed", n)
	}
	return frames, s
}

// asStream returns copies of frames that belong to stream id.
func asStream(frames []*frame.Frame, id int) []*frame.Frame {
	out := make([]*frame.Frame, len(frames))
	for i, f := range frames {
		out[i] = f.Clone()
		out[i].StreamID = id
	}
	return out
}

// detectAll runs frames through tg one at a time.
func detectAll(tg *TinyGrid, frames []*frame.Frame) [][]Detection {
	out := make([][]Detection, len(frames))
	for i, f := range frames {
		out[i] = tg.Detect(f)
	}
	return out
}

// wearOut registers stream id from the seed, detects frames on it
// (moving its estimate, history and component list far from any seed)
// and unregisters it, leaving one used state on tg's free list.
func wearOut(t *testing.T, tg *TinyGrid, id int, frames []*frame.Frame, s *vidgen.Stream) {
	t.Helper()
	tg.SetBackground(id, s.SharedBackground())
	detectAll(tg, asStream(frames, id))
	tg.Unregister(id)
	if made, free := tg.States(); made != 1 || free != 1 {
		t.Fatalf("after one stream came and went: %d states made, %d free; want 1 and 1", made, free)
	}
}

// TestRecycledStateDetectsLikeAFreshOne runs a stream on a state a
// departed stream wore out and on a new detector's state, from a seed
// and from the lazy path: every detection and every bit of the
// estimate must agree, and the stream must have taken the departed
// stream's state instead of allocating one.
func TestRecycledStateDetectsLikeAFreshOne(t *testing.T) {
	frames, s := personFrames(t, 40)
	for _, seeded := range []bool{true, false} {
		used := NewTinyGrid(DefaultTinyGridConfig())
		wearOut(t, used, 1, frames, s)
		fresh := NewTinyGrid(DefaultTinyGridConfig())
		if seeded {
			used.SetBackground(2, s.SharedBackground())
			fresh.SetBackground(2, s.SharedBackground())
		}
		mine := asStream(frames, 2)
		// The second half of the frames first: the lazy path seeds from
		// a frame the worn state's first stream never saw.
		mine = append(mine[20:], mine[:20]...)
		got, want := detectAll(used, mine), detectAll(fresh, mine)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seeded=%v: a recycled state's detections differ from a fresh detector's", seeded)
		}
		if !reflect.DeepEqual(emaBits(t, used, 2), emaBits(t, fresh, 2)) {
			t.Errorf("seeded=%v: a recycled state's estimate differs from a fresh detector's", seeded)
		}
		if made, free := used.States(); made != 1 || free != 0 {
			t.Errorf("seeded=%v: %d states made, %d free; want the departed stream's state reused (1, 0)", seeded, made, free)
		}
	}
}

// TestWarmSetBackgroundAllocatesNothing: once a detector has made a
// state and remembered the seed, a stream that arrives after another
// left copies the seed into the departed stream's state, and neither
// registration nor release allocates.
func TestWarmSetBackgroundAllocatesNothing(t *testing.T) {
	s := vidgen.New(vidgen.Small(1, frame.ClassCar, 0.1))
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(1, s.SharedBackground())
	tg.Unregister(1)
	id := 1
	if allocs := testing.AllocsPerRun(50, func() {
		tg.SetBackground(id, s.SharedBackground())
		tg.Unregister(id)
		id++
	}); allocs != 0 {
		t.Errorf("warm SetBackground + Unregister: %v allocations, want 0", allocs)
	}
	if made, free := tg.States(); made != 1 || free != 1 {
		t.Errorf("%d states made, %d free; want 1 and 1", made, free)
	}

	// Each new state reserved its slot on the list, so releasing the
	// streams of a detector that never recycled does not grow the list
	// either: the offline runs' counts do not move.
	fresh := NewTinyGrid(DefaultTinyGridConfig())
	const streams = 16
	for id := 0; id < streams; id++ {
		fresh.SetBackground(id, s.SharedBackground())
	}
	reserved := cap(fresh.free)
	for id := 0; id < streams; id++ {
		fresh.Unregister(id)
	}
	if len(fresh.free) != streams || cap(fresh.free) != reserved {
		t.Errorf("releasing %d streams regrew the free list: capacity %d at registration, %d after",
			streams, reserved, cap(fresh.free))
	}
}

// TestReseedingARegisteredStreamReusesItsState: SetBackground on a
// stream that is still registered — a stream re-forwarded back to an
// instance where a fragment of it still drains — reseeds the stream's
// own state in place: nothing is orphaned and the free list does not
// grow.
func TestReseedingARegisteredStreamReusesItsState(t *testing.T) {
	frames, s := personFrames(t, 20)
	tg := NewTinyGrid(DefaultTinyGridConfig())
	tg.SetBackground(1, s.SharedBackground())
	seeded := emaBits(t, tg, 1)
	before := tg.bg[1]
	detectAll(tg, asStream(frames, 1))
	if reflect.DeepEqual(emaBits(t, tg, 1), seeded) {
		t.Fatal("twenty frames left the estimate at its seed; the test shows nothing")
	}
	tg.SetBackground(1, s.SharedBackground())
	if tg.bg[1] != before {
		t.Error("reseeding replaced the stream's state instead of overwriting it")
	}
	if !reflect.DeepEqual(emaBits(t, tg, 1), seeded) || tg.bg[1].frames != 1000 {
		t.Error("reseeding did not restore the seeded estimate and history")
	}
	if made, free := tg.States(); made != 1 || free != 0 {
		t.Errorf("%d states made, %d free; want 1 and 0", made, free)
	}
}

// TestStatesRecycleAcrossGoroutines is the multi-filter-GPU case: one
// T-YOLO worker per GPU, each on its own streams, registering,
// detecting and releasing on one detector at once. Every stream must
// detect what a fresh detector does, and the detector must never make
// more states than streams were live at once.
func TestStatesRecycleAcrossGoroutines(t *testing.T) {
	const workers, streamsEach = 4, 3
	frames, s := personFrames(t, 6)
	fresh := NewTinyGrid(DefaultTinyGridConfig())
	fresh.SetBackground(frames[0].StreamID, s.SharedBackground())
	want := detectAll(fresh, frames)

	tg := NewTinyGrid(DefaultTinyGridConfig())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < streamsEach; k++ {
				id := 100*(w+1) + k
				tg.SetBackground(id, s.SharedBackground())
				var dets []Detection
				for i, f := range asStream(frames, id) {
					dets = tg.AppendDetect(dets[:0], f)
					if !slices.Equal(dets, want[i]) {
						t.Errorf("stream %d frame %d: detections differ from a fresh detector's", id, i)
					}
				}
				tg.Unregister(id)
			}
		}(w)
	}
	wg.Wait()
	made, free := tg.States()
	if made > workers || free != made {
		t.Errorf("%d states made, %d free; want at most %d made, all of them free", made, free, workers)
	}
}
