package video

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

func TestPackBitsRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(n%4096)+1)
		// Mix runs and noise, like XOR deltas do.
		for i := 0; i < len(src); {
			if rng.Intn(2) == 0 {
				run := rng.Intn(200) + 1
				v := byte(rng.Intn(256))
				for k := 0; k < run && i < len(src); k++ {
					src[i] = v
					i++
				}
			} else {
				src[i] = byte(rng.Intn(256))
				i++
			}
		}
		packed := packBits(src)
		out, err := unpackBits(packed, len(src))
		if err != nil {
			return false
		}
		return bytes.Equal(src, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackBitsCompressesRuns(t *testing.T) {
	src := make([]byte, 10000) // all zero: one long run
	packed := packBits(src)
	if len(packed) > 200 {
		t.Fatalf("10000 zero bytes packed to %d bytes", len(packed))
	}
}

func TestUnpackBitsRejectsCorrupt(t *testing.T) {
	if _, err := unpackBits([]byte{127}, 5); err == nil {
		t.Fatal("truncated literal accepted")
	}
	if _, err := unpackBits([]byte{128}, 5); err == nil {
		t.Fatal("reserved control byte accepted")
	}
	if _, err := unpackBits([]byte{0, 7}, 5); err == nil {
		t.Fatal("wrong size accepted")
	}
}

func TestRoundTripSyntheticStream(t *testing.T) {
	cfg := vidgen.Small(91, frame.ClassCar, 0.3)
	src := vidgen.New(cfg)
	const n = 400 // spans multiple keyframe intervals

	var buf bytes.Buffer
	w, err := NewWriter(&buf, cfg.W, cfg.H, cfg.FPS)
	if err != nil {
		t.Fatal(err)
	}
	var originals []*frame.Frame
	for i := 0; i < n; i++ {
		f := src.Next()
		originals = append(originals, f.Clone())
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d frames (%d raw bytes) stored in %d bytes (%.1fx compression)",
		n, n*cfg.W*cfg.H, buf.Len(), float64(n*cfg.W*cfg.H)/float64(buf.Len()))

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.W != cfg.W || h.H != cfg.H || h.FPS != cfg.FPS {
		t.Fatalf("header = %+v", h)
	}
	for i := 0; i < n; i++ {
		g, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		o := originals[i]
		if !bytes.Equal(g.Pix, o.Pix) {
			t.Fatalf("frame %d pixels differ", i)
		}
		if g.Seq != int64(i) {
			t.Fatalf("frame %d seq = %d", i, g.Seq)
		}
		if (g.Truth == nil) != (o.Truth == nil) {
			t.Fatalf("frame %d annotation presence differs", i)
		}
		if g.Truth != nil {
			if g.Truth.SceneID != o.Truth.SceneID || len(g.Truth.Boxes) != len(o.Truth.Boxes) {
				t.Fatalf("frame %d annotation differs: %+v vs %+v", i, g.Truth, o.Truth)
			}
			for j, b := range g.Truth.Boxes {
				ob := o.Truth.Boxes[j]
				if b.X != ob.X || b.Y != ob.Y || b.W != ob.W || b.H != ob.H || b.Class != ob.Class {
					t.Fatalf("frame %d box %d differs", i, j)
				}
				if math.Abs(b.Visible-ob.Visible) > 1.0/254 {
					t.Fatalf("frame %d box %d visible %v vs %v", i, j, b.Visible, ob.Visible)
				}
			}
			if math.Abs(g.Truth.Lum-o.Truth.Lum) > 0.5 {
				t.Fatalf("frame %d lum %v vs %v", i, g.Truth.Lum, o.Truth.Lum)
			}
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameCountPatchedOnSeekableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clip.fvs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 64, 48, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fr := frame.New(64, 48)
		fr.Pix[i] = byte(i)
		if err := w.WriteFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r, err := NewReader(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Frames != 10 {
		t.Fatalf("frame count = %d, want 10", r.Header().Frames)
	}
}

func TestWriterRejectsWrongSize(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 64, 48, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(frame.New(32, 32)); err == nil {
		t.Fatal("wrong-size frame accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(frame.New(64, 48)); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("garbage bytes here......"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestNilAnnotationRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 8, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(frame.New(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Truth != nil {
		t.Fatal("nil annotation became non-nil")
	}
}
