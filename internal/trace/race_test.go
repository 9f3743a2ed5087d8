package trace

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWritersAndExports hammers the Tracer from many
// goroutines — each owning its own frames, as the pipeline's stages do —
// while exports and decompositions run concurrently. Run under -race
// (make race includes this package) it proves the retention, pooling,
// histogram, and export paths share state only under tr.mu.
func TestConcurrentWritersAndExports(t *testing.T) {
	tr := New(Options{})
	const writers, frames = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				now := time.Duration(i) * time.Millisecond
				ft := tr.StartFrame(w, int64(i), w%2, now)
				ft.BeginWait(KWaitSDD, now)
				ft.EndWait(now + time.Millisecond)
				sp := ft.StartSpan(KSDD, "cpu", now+time.Millisecond)
				disposition := "detected"
				if i%7 == 0 {
					sp.EndDrop(now + 2*time.Millisecond)
					disposition = "dropped-sdd"
				} else {
					sp.End(now + 2*time.Millisecond)
				}
				if i%13 == 0 {
					tr.Instant("throttle", "feedback", w%2, now)
				}
				tr.Finish(ft, disposition, false, now+2*time.Millisecond)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := tr.WriteTraceEvents(io.Discard); err != nil {
				t.Errorf("WriteTraceEvents: %v", err)
			}
			tr.Decomposition(-1)
			tr.FinishedFrames()
		}
	}()
	wg.Wait()

	if got, want := tr.FinishedFrames(), int64(writers*frames); got != want {
		t.Fatalf("finished %d frames, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("post-race export invalid: %v", err)
	}
}
