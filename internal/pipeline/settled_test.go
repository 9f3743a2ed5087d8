package pipeline

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/vclock"
)

// blankSource yields black frames, which a black SDD reference drops.
type blankSource struct{ seq int64 }

func (b *blankSource) Next() *frame.Frame {
	f := frame.New(16, 16)
	f.Seq = b.seq
	b.seq++
	return f
}

// finishedSystem runs n one-frame streams to completion; every frame
// ends at the SDD, so the run costs next to nothing per stream.
func finishedSystem(t *testing.T, n int) *System {
	t.Helper()
	ref := imgproc.NewGray(filters.SDDSize, filters.SDDSize)
	specs := make([]StreamSpec, n)
	for i := range specs {
		specs[i] = StreamSpec{ID: i, Source: &blankSource{}, Frames: 1,
			SDD:   filters.NewSDD(ref, 0.1, filters.MetricMSE),
			SNM:   filters.NewSNM(nil, 0.3, 0.7, 0.5), // never reached, only reported on
			TYolo: filters.NewTYolo(nil, frame.ClassCar, 1),
		}
	}
	cfg := DefaultConfig(vclock.NewVirtual())
	cfg.ChargeCosts = false
	sys := New(cfg, specs)
	rep := sys.Run()
	if got := rep.Streams[n-1].Counts[DropSDD]; got != 1 {
		t.Fatalf("stream %d: %d frames dropped by the SDD, want 1", n-1, got)
	}
	return sys
}

// sameApartFromTime compares two snapshots ignoring At and Metrics, the
// two fields that read the clock.
func sameApartFromTime(a, b Snapshot) bool {
	a.At, b.At = 0, 0
	a.Metrics, b.Metrics = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestSnapshotOfFinishedSystemIsFlat pins what a snapshot costs once the
// streams have settled: as many allocations for a thousand streams as
// for a hundred (Streams is sized once, a settled stream is copied out
// of its kept StreamSnapshot), and the same contents every time.
func TestSnapshotOfFinishedSystemIsFlat(t *testing.T) {
	small, large := finishedSystem(t, 100), finishedSystem(t, 1000)
	first := large.Snapshot()
	for _, st := range large.streams {
		kept := st.settled
		if kept == nil {
			t.Fatalf("stream %d finished but did not settle", st.spec.ID)
		}
		var live StreamSnapshot
		large.streamSnapshot(st, &live)
		if *kept != live {
			t.Fatalf("stream %d: kept snapshot %+v differs from the live one %+v", st.spec.ID, *kept, live)
		}
	}
	if second := large.Snapshot(); !sameApartFromTime(first, second) {
		t.Error("two consecutive snapshots of a finished system differ")
	}
	if len(first.Streams) != 1000 || first.Decided != 1000 || first.LiveStreams != 0 {
		t.Errorf("finished system: %d streams, %d decided, %d live", len(first.Streams), first.Decided, first.LiveStreams)
	}
	if at100, at1000 := snapshotAllocs(small), snapshotAllocs(large); at100 != at1000 {
		t.Errorf("Snapshot allocates %d times at 100 finished streams and %d times at 1000", at100, at1000)
	}
}

// snapshotAllocs counts the allocations of one Snapshot: the least of
// five readings, so that a goroutine an earlier test left behind cannot
// add to it.
func snapshotAllocs(sys *System) uint64 {
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		sys.Snapshot()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	return least
}

// TestSettledStreamStillShowsStop covers the one field that can move
// after a stream has settled: StopStream and CancelAll must show in the
// next snapshot although the stream's snapshot had been kept.
func TestSettledStreamStillShowsStop(t *testing.T) {
	sys := finishedSystem(t, 3)
	if sn := sys.Snapshot(); sn.Streams[1].Stopped {
		t.Fatal("stream 1 stopped before anyone stopped it")
	}
	if _, _, _, ok := sys.StopStream(1); !ok {
		t.Fatal("StopStream(1) found no stream")
	}
	sn := sys.Snapshot()
	if !sn.Streams[1].Stopped || sn.Streams[0].Stopped || sn.Streams[2].Stopped {
		t.Errorf("after StopStream(1): stopped = %v %v %v, want false true false",
			sn.Streams[0].Stopped, sn.Streams[1].Stopped, sn.Streams[2].Stopped)
	}
	sys.CancelAll()
	for _, ss := range sys.Snapshot().Streams {
		if !ss.Stopped {
			t.Errorf("after CancelAll: stream %d not shown stopped", ss.ID)
		}
	}
}

// TestSettledSnapshotsMatchLiveState watches an online run whose
// streams end one after another: at every sample each kept snapshot
// must equal what the live stream would report.
func TestSettledSnapshotsMatchLiveState(t *testing.T) {
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk)
	cfg.Mode = Online
	cfg.DisableSDD = true
	cfg.DisableSNM = true
	sys := New(cfg, []StreamSpec{rawSpec(0, 20), rawSpec(1, 50), rawSpec(2, 80)})
	settledEarly := false
	sys.Monitor(200*time.Millisecond, func(sn Snapshot) {
		for i, st := range sys.streams {
			kept := st.settled
			if kept == nil {
				continue
			}
			settledEarly = settledEarly || !sn.Finished
			var live StreamSnapshot
			sys.streamSnapshot(st, &live)
			if *kept != live || sn.Streams[i] != live {
				t.Errorf("t=%v stream %d: kept %+v, reported %+v, live %+v", sn.At, i, *kept, sn.Streams[i], live)
			}
		}
	})
	sys.Run()
	if !settledEarly {
		t.Error("no stream settled while others still ran; the test is vacuous")
	}
}
