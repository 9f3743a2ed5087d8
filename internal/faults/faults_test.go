package faults

import (
	"testing"
	"time"

	"ffsva/internal/frame"
)

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"crash:inst=1,at=8s",
		"slow:dev=gpu0,from=2s,until=10s,x=2",
		"stall:dev=gpu1,from=3s,until=4s",
		"decode:stream=0,seq=100-200,attempts=3",
		"corrupt:stream=0,seq=100-200",
	} {
		f, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		// Re-parsing a fault's own rendering must yield the same fault.
		g, err := Parse(f.String())
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", spec, f.String(), err)
		}
		if f != g {
			t.Errorf("round trip %q: %+v != %+v", spec, f, g)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	f, err := Parse("decode:stream=2,seq=10-20")
	if err != nil {
		t.Fatal(err)
	}
	if f.Attempts != 1 {
		t.Errorf("default attempts = %d, want 1", f.Attempts)
	}
	f, err = Parse("corrupt:seq=0-5")
	if err != nil {
		t.Fatal(err)
	}
	if f.Stream != -1 {
		t.Errorf("default stream = %d, want -1 (all streams)", f.Stream)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                                       // no kind
		"explode:at=1s",                          // unknown kind
		"decode:stream=0",                        // missing seq window
		"decode:stream=0,seq=20-10",              // empty seq window
		"decode:stream=0,seq=20",                 // malformed seq
		"slow:dev=gpu0,from=1s",                  // slow without x
		"slow:dev=gpu0,x=0",                      // non-positive factor
		"crash:inst=one",                         // bad int
		"crash:at=soon",                          // bad duration
		"crash:inst=0,when=1s",                   // unknown key
		"crash:inst",                             // pair without =
		"slow:dev=gpu0,from=0s,until=1s,x=Inf",   // infinite factor
		"slow:dev=gpu0,from=0s,until=1s,x=1e300", // overflowing factor
		"slow:dev=gpu0,from=0s,until=1s,x=NaN",   // not a factor
		"decode:stream=0,seq=1-5,attempts=-4",    // negative attempts
		"decode:stream=0,seq=1-5,attempts=0",     // no failing attempt
		"crash:inst=0,at=-3s",                    // negative time
		"slow:dev=gpu0,from=2s,until=1s,x=2",     // inverted window
		"stall:dev=gpu0,from=1s",                 // stall without end
		"decode:stream=0,seq=1-5,inst=1",         // key of another kind
		"crash:inst=0,at=1s,until=2s",            // key of another kind
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestForInstance(t *testing.T) {
	plan := []Fault{
		{Kind: DecodeError, Stream: 0, SeqFrom: 0, SeqTo: 10, Attempts: 1},
		{Kind: DeviceSlow, Instance: 0, Device: "gpu0", Factor: 2, Until: time.Second},
		{Kind: DeviceSlow, Instance: 1, Device: "gpu0", Factor: 2, Until: time.Second},
		{Kind: InstanceCrash, Instance: 1, From: 5 * time.Second},
	}
	// Stream faults travel to every instance; device faults bind to
	// theirs; crashes are excluded (scheduled separately via Crashes).
	if got := ForInstance(plan, 0); len(got) != 2 {
		t.Errorf("ForInstance(0) = %d faults, want 2 (stream + own slow)", len(got))
	}
	if got := ForInstance(plan, 2); len(got) != 1 {
		t.Errorf("ForInstance(2) = %d faults, want 1 (stream only)", len(got))
	}
	crashes := Crashes(plan)
	if len(crashes) != 1 || crashes[0] != (Crash{Instance: 1, At: 5 * time.Second}) {
		t.Errorf("Crashes = %+v", crashes)
	}
	if at, ok := CrashTime(plan, 1); !ok || at != 5*time.Second {
		t.Errorf("CrashTime(1) = %v, %v", at, ok)
	}
	if _, ok := CrashTime(plan, 0); ok {
		t.Error("CrashTime(0): want no crash")
	}
}

func TestCrashesOrdering(t *testing.T) {
	plan := []Fault{
		{Kind: InstanceCrash, Instance: 2, From: 3 * time.Second},
		{Kind: InstanceCrash, Instance: 1, From: 3 * time.Second},
		{Kind: InstanceCrash, Instance: 0, From: time.Second},
	}
	got := Crashes(plan)
	want := []Crash{{0, time.Second}, {1, 3 * time.Second}, {2, 3 * time.Second}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Crashes[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeFailuresWindow(t *testing.T) {
	inj := NewInjector([]Fault{
		{Kind: DecodeError, Stream: 1, SeqFrom: 5, SeqTo: 8, Attempts: 2},
		{Kind: DecodeError, Stream: -1, SeqFrom: 7, SeqTo: 9}, // Attempts 0 defaults to 1
	})
	cases := []struct {
		stream int
		seq    int64
		want   int
	}{
		{1, 4, 0}, // before the window
		{1, 5, 2}, // window start
		{1, 7, 2}, // both match; max(2, 1) = 2
		{1, 8, 1}, // only the wildcard
		{1, 9, 0}, // past both (SeqTo exclusive)
		{0, 6, 0}, // wrong stream for the first fault
		{0, 8, 1}, // wildcard matches any stream
	}
	for _, c := range cases {
		if got := inj.DecodeFailures(c.stream, c.seq); got != c.want {
			t.Errorf("DecodeFailures(%d, %d) = %d, want %d", c.stream, c.seq, got, c.want)
		}
	}
}

func TestCorruptsWindow(t *testing.T) {
	inj := NewInjector([]Fault{{Kind: CorruptFrame, Stream: 3, SeqFrom: 10, SeqTo: 12}})
	if inj.Corrupts(3, 9) || !inj.Corrupts(3, 10) || !inj.Corrupts(3, 11) || inj.Corrupts(3, 12) {
		t.Error("Corrupts window [10,12) mismatch")
	}
	if inj.Corrupts(2, 10) {
		t.Error("Corrupts: wrong stream matched")
	}
}

func TestAdjustServiceTime(t *testing.T) {
	inj := NewInjector([]Fault{
		{Kind: DeviceSlow, Device: "gpu0", From: 2 * time.Second, Until: 10 * time.Second, Factor: 2},
		{Kind: DeviceStall, Device: "gpu1", From: 3 * time.Second, Until: 4 * time.Second},
	})
	base := 10 * time.Millisecond
	cases := []struct {
		dev  string
		now  time.Duration
		want time.Duration
	}{
		{"gpu0", time.Second, base},                                    // before the window
		{"gpu0", 2 * time.Second, 2 * base},                            // window start: doubled
		{"gpu0", 10 * time.Second, base},                               // Until exclusive
		{"cpu", 5 * time.Second, base},                                 // other device untouched
		{"gpu1", 3500 * time.Millisecond, base + 500*time.Millisecond}, // wait out the stall
		{"gpu1", 4 * time.Second, base},                                // stall over
	}
	for _, c := range cases {
		if got := inj.AdjustServiceTime(c.dev, c.now, base); got != c.want {
			t.Errorf("AdjustServiceTime(%s, %v, %v) = %v, want %v", c.dev, c.now, base, got, c.want)
		}
	}
}

func TestAdjustServiceTimeComposes(t *testing.T) {
	// A slowdown and a stall overlapping the same device compose in plan
	// order: first ×2, then + remaining window.
	inj := NewInjector([]Fault{
		{Kind: DeviceSlow, Device: "gpu0", From: 0, Until: 10 * time.Second, Factor: 2},
		{Kind: DeviceStall, Device: "gpu0", From: 0, Until: time.Second},
	})
	got := inj.AdjustServiceTime("gpu0", 500*time.Millisecond, 10*time.Millisecond)
	want := 20*time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Errorf("composed adjust = %v, want %v", got, want)
	}
}

func TestAdjustServiceTimeEmptyDeviceMatchesAll(t *testing.T) {
	inj := NewInjector([]Fault{{Kind: DeviceSlow, From: 0, Until: time.Second, Factor: 3}})
	if got := inj.AdjustServiceTime("ssd", 0, time.Millisecond); got != 3*time.Millisecond {
		t.Errorf("wildcard device adjust = %v, want 3ms", got)
	}
}

// stubSource delivers fresh frames and counts pulls.
type stubSource struct{ pulls int }

func (s *stubSource) Next() *frame.Frame {
	s.pulls++
	return frame.New(8, 8)
}

func TestWrapSourcePassthrough(t *testing.T) {
	inj := NewInjector([]Fault{{Kind: DecodeError, Stream: 5, SeqFrom: 0, SeqTo: 1, Attempts: 1}})
	src := &stubSource{}
	if got := inj.WrapSource(src, 3); got != FrameSource(src) {
		t.Error("stream with no matching faults must not be wrapped")
	}
	if got := inj.WrapSource(src, 5); got == FrameSource(src) {
		t.Error("stream with matching faults must be wrapped")
	}
}

func TestSourceDecodeRetryProtocol(t *testing.T) {
	inj := NewInjector([]Fault{{Kind: DecodeError, Stream: 0, SeqFrom: 1, SeqTo: 2, Attempts: 2}})
	src := inj.WrapSource(&stubSource{}, 0).(*Source)

	// Frame 0: healthy.
	if src.DecodeFails() {
		t.Fatal("frame 0 must decode cleanly")
	}
	src.Next().Release()

	// Frame 1: exactly two failed attempts, then success.
	fails := 0
	for src.DecodeFails() {
		fails++
		if fails > 10 {
			t.Fatal("DecodeFails never recovers")
		}
	}
	if fails != 2 {
		t.Fatalf("frame 1 failed %d attempts, want 2", fails)
	}
	src.Next().Release()

	// Frame 2: healthy again (attempts reset on delivery).
	if src.DecodeFails() {
		t.Fatal("frame 2 must decode cleanly")
	}
	src.Next().Release()
}

func TestSourceDiscardAdvances(t *testing.T) {
	inj := NewInjector([]Fault{{Kind: DecodeError, Stream: 0, SeqFrom: 0, SeqTo: 2, Attempts: 1}})
	inner := &stubSource{}
	src := inj.WrapSource(inner, 0).(*Source)

	if !src.DecodeFails() {
		t.Fatal("frame 0 must fail once")
	}
	src.Discard() // give up on frame 0; consumes the slot
	if inner.pulls != 1 {
		t.Fatalf("Discard consumed %d inner frames, want 1", inner.pulls)
	}
	// Frame 1 presents its own failure budget.
	if !src.DecodeFails() {
		t.Fatal("frame 1 must fail once after Discard advanced the sequence")
	}
	if src.DecodeFails() {
		t.Fatal("frame 1 must fail exactly once")
	}
	src.Next().Release()
}

func TestSourceCorruption(t *testing.T) {
	inj := NewInjector([]Fault{{Kind: CorruptFrame, Stream: 0, SeqFrom: 1, SeqTo: 2}})
	src := inj.WrapSource(&stubSource{}, 0).(*Source)

	f0 := src.Next()
	if f0.Corrupt {
		t.Error("frame 0 must be clean")
	}
	f0.Release()

	f1 := src.Next()
	if !f1.Corrupt {
		t.Error("frame 1 must be corrupted")
	}
	// The scramble must actually damage the payload, not just flag it.
	changed := false
	for _, p := range f1.Pix {
		if p != 0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("corruption left the pixel plane untouched")
	}
	f1.Release()
}

// fuzzSeeds are FuzzParse's corpus: the documented specs and the ones
// that once slipped through with nonsense values.
var fuzzSeeds = []string{
	"crash:inst=1,at=8s",
	"slow:dev=gpu0,from=2s,until=10s,x=2",
	"slow:dev=gpu0,from=1s,x=3",
	"stall:dev=gpu1,from=3s,until=4s",
	"decode:stream=0,seq=100-200,attempts=3",
	"corrupt:stream=0,seq=100-200",
	"slow:dev=gpu0,from=0s,until=1s,x=Inf",
	"slow:dev=gpu0,from=0s,until=1s,x=1e300",
	"slow:dev=gpu0,from=0s,until=1s,x=1e6",
	"slow:dev=gpu0,from=0s,until=1s,x=NaN",
	"decode:stream=0,seq=1-5,attempts=-4",
	"crash:inst=0,at=-3s",
	"slow:dev=gpu0,from=2s,until=1s,x=2",
	"stall:dev=,from=0s,until=2562047h47m16.854775807s",
}

// FuzzParse: Parse never panics, an accepted spec round-trips through
// String, and an accepted fault never makes a service time negative.
func FuzzParse(f *testing.F) {
	for _, spec := range fuzzSeeds {
		f.Add(spec, int64(10*time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, spec string, dur int64) {
		ft, err := Parse(spec)
		if err != nil {
			return
		}
		back, err := Parse(ft.String())
		if err != nil || back != ft {
			t.Fatalf("%q parsed to %+v, whose rendering %q parsed to %+v (%v)", spec, ft, ft.String(), back, err)
		}
		if dur < 0 {
			return
		}
		inj := NewInjector([]Fault{ft})
		for _, now := range []time.Duration{0, ft.From, ft.From + (ft.Until-ft.From)/2} {
			if got := inj.AdjustServiceTime(ft.Device, now, time.Duration(dur)); got < 0 {
				t.Fatalf("%q turns %v at %v into %v", spec, time.Duration(dur), now, got)
			}
		}
	})
}
