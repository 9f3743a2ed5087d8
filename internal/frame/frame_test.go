package frame

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassNone: "none", ClassCar: "car", ClassPerson: "person",
		ClassBus: "bus", ClassTruck: "truck", ClassBicycle: "bicycle",
		ClassDog: "dog", ClassCat: "cat",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Class(99).String() != "class(99)" {
		t.Errorf("unknown class = %q", Class(99).String())
	}
	if NumClasses != 7 {
		t.Errorf("NumClasses = %d, want 7", NumClasses)
	}
}

func TestAtSet(t *testing.T) {
	f := New(4, 3)
	if f.W != 4 || f.H != 3 || len(f.Pix) != 12 {
		t.Fatalf("New: %+v", f)
	}
	f.Set(2, 1, 99)
	if f.At(2, 1) != 99 || f.Pix[1*4+2] != 99 {
		t.Fatal("At/Set addressing wrong")
	}
}

func TestAtSetRoundTripProperty(t *testing.T) {
	f := New(16, 16)
	prop := func(x, y, v uint8) bool {
		xi, yi := int(x)%16, int(y)%16
		f.Set(xi, yi, v)
		return f.At(xi, yi) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneDeep(t *testing.T) {
	f := New(2, 2)
	f.Truth = &Annotation{
		Boxes:   []Box{{X: 1, Y: 1, W: 1, H: 1, Class: ClassCar, Visible: 1}},
		SceneID: 7,
	}
	f.Pix[0] = 10
	g := f.Clone()
	g.Pix[0] = 20
	g.Truth.Boxes[0].X = 5
	g.Truth.SceneID = 8
	if f.Pix[0] != 10 {
		t.Fatal("Clone shares pixels")
	}
	if f.Truth.Boxes[0].X != 1 || f.Truth.SceneID != 7 {
		t.Fatal("Clone shares annotation")
	}
}

func TestCloneNilTruth(t *testing.T) {
	f := New(2, 2)
	g := f.Clone()
	if g.Truth != nil {
		t.Fatal("Clone invented truth")
	}
}

func TestTargetCount(t *testing.T) {
	var nilAnn *Annotation
	if nilAnn.TargetCount(ClassCar) != 0 {
		t.Fatal("nil annotation count != 0")
	}
	a := &Annotation{Boxes: []Box{
		{Class: ClassCar}, {Class: ClassCar}, {Class: ClassPerson},
	}}
	if a.TargetCount(ClassCar) != 2 || a.TargetCount(ClassPerson) != 1 || a.TargetCount(ClassDog) != 0 {
		t.Fatal("TargetCount wrong")
	}
}

func TestBoxArea(t *testing.T) {
	b := Box{W: 4, H: 5}
	if b.Area() != 20 {
		t.Fatalf("Area = %d", b.Area())
	}
}

func TestFrameString(t *testing.T) {
	f := New(10, 20)
	f.StreamID, f.Seq = 3, 42
	if got := f.String(); got != "frame{stream=3 seq=42 10x20}" {
		t.Fatalf("String = %q", got)
	}
}

// fill is a Drawer that paints one value and counts its calls.
type fill struct {
	v     uint8
	calls int
}

func (d *fill) Draw(pix []uint8) {
	d.calls++
	for i := range pix {
		pix[i] = d.v
	}
}

func (d *fill) Recycle() {}

// TestDrawPaintsOnceFromThePool: a captured frame has no plane until
// Draw, which borrows one from the pool and asks its Drawer exactly once;
// later Draws, and a Draw after Release, do nothing. A captured frame
// released undrawn takes nothing from the pool.
func TestDrawPaintsOnceFromThePool(t *testing.T) {
	gets0, puts0 := PoolStats()
	d := &fill{v: 7}
	f := NewCaptured(4, 3, d)
	if f.Pix != nil {
		t.Fatal("a captured frame has pixels before Draw")
	}
	f.Draw()
	f.Draw()
	if d.calls != 1 || len(f.Pix) != 12 || f.Pix[11] != 7 {
		t.Fatalf("after two Draws: %d drawer calls, plane %v", d.calls, f.Pix)
	}
	f.Release()
	undrawn := NewCaptured(4, 3, d)
	undrawn.Release()
	undrawn.Draw()
	if d.calls != 1 || undrawn.Pix != nil {
		t.Fatal("a frame released undrawn was drawn")
	}
	if gets, puts := PoolStats(); gets-gets0 != 1 || puts-puts0 != 1 {
		t.Fatalf("pool gets %d, puts %d, want one of each", gets-gets0, puts-puts0)
	}
}

// TestPooledPlanesSurviveMixedResolutionsAndGC: a process that renders
// several resolutions (the experiments suite runs 320×240, 600×400 and
// 1280×720 streams side by side) keeps one free list per plane size, so
// after one warm-up round a get/release cycle allocates nothing — the
// header comes back too — also across garbage collections, which used
// to empty the pool. At the parent commit this counted a plane per
// mismatched get and per collection; until pooled frames' headers were
// recycled it counted the header.
func TestPooledPlanesSurviveMixedResolutionsAndGC(t *testing.T) {
	sizes := [][2]int{{320, 240}, {600, 400}}
	round := func() {
		for _, sz := range sizes {
			f := NewPooled(sz[0], sz[1])
			if len(f.Pix) != sz[0]*sz[1] {
				t.Fatalf("NewPooled(%d, %d): plane of %d", sz[0], sz[1], len(f.Pix))
			}
			escaped = f // as every frame a source hands the pipeline does
			f.Release()
		}
	}
	round()
	allocs := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		round()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per round of %d frames, want 0", allocs, len(sizes))
	}
}

// escaped makes a test's frames escape to the heap the way the
// pipeline's do, so an allocation count includes their headers.
var escaped *Frame

// TestCapturedHeadersSurviveConcurrentReuse: goroutines capture, draw
// and release frames through the one header list and plane pool, the
// way a pipeline's prefetch, SDD and T-YOLO processes hand them on.
// Each holder stamps its frames and checks the stamps before release,
// so a header or plane handed to two holders at once shows here (and
// under -race); Release leaves no field behind, and every header taken
// comes back.
func TestCapturedHeadersSurviveConcurrentReuse(t *testing.T) {
	gets0, puts0 := HeaderStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := &fill{v: uint8(g)}
			held := make([]*Frame, 0, 6)
			for iter := 0; iter < 300; iter++ {
				f := NewCaptured(8, 4+iter%3, d)
				if f.Pix != nil || f.Truth != nil || f.Seq != 0 || len(f.Cands) != 0 {
					t.Errorf("goroutine %d: a fresh capture kept fields: %+v", g, *f)
					return
				}
				f.Seq = int64(g)
				f.Draw()
				f.Cands = append(f.Cands, Candidate{X: g})
				held = append(held, f)
				if len(held) < cap(held) {
					continue
				}
				for _, h := range held {
					if h.Seq != int64(g) || h.Cands[0].X != g || h.Pix[len(h.Pix)-1] != uint8(g) {
						t.Errorf("goroutine %d: a held frame was changed by another holder", g)
						return
					}
					h.Release()
				}
				held = held[:0]
			}
		}(g)
	}
	wg.Wait()
	if gets, puts := HeaderStats(); gets-gets0 != 8*300 || puts-puts0 != 8*300 {
		t.Fatalf("headers: %d taken, %d returned, want %d each", gets-gets0, puts-puts0, 8*300)
	}
}
