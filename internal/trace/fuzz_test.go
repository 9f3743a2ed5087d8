package trace

import (
	"bytes"
	"testing"
)

// tracerFrom replays data as a traced run, four bytes per event: a
// frame with one span (dropped or kept, any kind, device and batch) or
// an instant. Times only move forward, as on the
// pipeline's clock. Validate demands at least one span, so the run
// always starts with one finished frame. The first 32 events are
// replayed in a loop, replayEvents in all: when at least half of them
// are frames that is more frames than the head and the ring hold
// together, so the samplers evict, and each exec stays cheap when the
// input is a whole trace document.
func tracerFrom(data []byte) *Tracer {
	data = data[:min(len(data), 128)]
	tr := New(Options{})
	devs := []string{"cpu", "gpu0", "gpu1"}
	names := []string{"throttle", "fault", "reforward"}
	frame := func(stream, instance int, k Kind, dev string, batch int, now, dur, seq int, drop bool) {
		ft := tr.StartFrame(stream, int64(seq), instance, ms(now))
		ft.AddSpan(k, ms(now), ms(now+dur), dev, batch)
		if drop {
			ft.MarkDrop()
			tr.Finish(ft, "dropped", false, ms(now+dur))
			return
		}
		tr.Finish(ft, "detected", false, ms(now+dur))
	}
	frame(0, 0, KSDD, "cpu", 1, 0, 1, 0, false)
	now := 1
	events := len(data) / 4
	if events == 0 {
		return tr
	}
	for e := 0; e < replayEvents; e++ {
		b := data[4*(e%events) : 4*(e%events)+4]
		instance := int(b[2] % 3)
		switch b[0] % 4 {
		case 0, 1:
			frame(int(b[1]%4), instance, Kind(b[3]%NumKinds), devs[b[3]%3], int(b[0]>>4)%11,
				now, int(b[1]%16), e+1, b[0]&8 != 0)
		case 2, 3:
			tr.Instant(names[b[1]%3], "fuzz", instance, ms(now))
		}
		now += int(b[2] % 8)
	}
	return tr
}

// replayEvents is how many events tracerFrom replays: twice the frames
// the head and the ring hold together.
const replayEvents = 2 * (headN + ringSize)

// FuzzValidate feeds the trace-event validator foreign bytes, and the
// tracer runs replayed from the same bytes: Validate must never panic,
// and every document the tracer exports must validate. Its inputs are
// whole trace documents, which Go's minimizer spends up to its default
// minute on each, so fuzz with a short budget:
//
//	go test ./internal/trace -run '^$' -fuzz FuzzValidate -fuzzminimizetime 1s
func FuzzValidate(f *testing.F) {
	var doc bytes.Buffer
	if err := tracerFrom([]byte{0, 3, 1, 4, 2, 0, 2, 0, 3, 1, 1, 9, 8, 5, 0, 11}).WriteTraceEvents(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(doc.Bytes()[:doc.Len()/2])
	f.Add(bytes.Replace(doc.Bytes(), []byte(`"ph":"X"`), []byte(`"ph":"B"`), 1))
	f.Add(bytes.ReplaceAll(doc.Bytes(), []byte(`"ph":"X"`), []byte(`"ph":"i"`)))
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":0,"pid":0,"tid":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = Validate(data)
		var out bytes.Buffer
		if err := tracerFrom(data).WriteTraceEvents(&out); err != nil {
			t.Fatal(err)
		}
		if err := Validate(out.Bytes()); err != nil {
			t.Fatalf("tracer export fails validation: %v\n%s", err, out.Bytes())
		}
	})
}
