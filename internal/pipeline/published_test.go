package pipeline

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ffsva/internal/device"
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

// blankSpecs are n one-frame streams whose every frame ends at the SDD.
func blankSpecs(n int) []StreamSpec {
	ref := imgproc.NewGray(filters.SDDSize, filters.SDDSize)
	specs := make([]StreamSpec, n)
	for i := range specs {
		specs[i] = StreamSpec{ID: i, Source: &blankSource{}, Frames: 1,
			SDD:   filters.NewSDD(ref, 0.1, filters.MetricMSE),
			SNM:   filters.NewSNM(nil, 0.3, 0.7, 0.5), // never reached, only reported on
			TYolo: filters.NewTYolo(nil, frame.ClassCar, 1),
		}
	}
	return specs
}

// finishedSystem runs n blankSpecs streams to completion, which costs
// next to nothing per stream.
func finishedSystem(t *testing.T, n int) *System {
	t.Helper()
	specs := blankSpecs(n)
	cfg := DefaultConfig(vclock.NewVirtual())
	cfg.Costs = device.CostModel{}
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
// for a hundred (no stream has a new entry, so nothing is published),
// at most four of them and 8 B a stream plus 2 KB, and the same
// contents every time. The same bound holds for a system whose streams
// have not started.
func TestSnapshotOfFinishedSystemIsFlat(t *testing.T) {
	small, large := finishedSystem(t, 100), finishedSystem(t, 1000)
	first := large.Snapshot()
	for i, st := range large.streams {
		var live StreamSnapshot
		large.streamSnapshot(st, &live)
		if ss := first.Streams[i]; !ss.settled() || *ss != live {
			t.Fatalf("stream %d: published entry %+v is not the settled live state %+v", st.spec.ID, *ss, live)
		}
	}
	second := large.Snapshot()
	if !sameApartFromTime(first, second) {
		t.Error("two consecutive snapshots of a finished system differ")
	}
	if &first.Streams[0] != &second.Streams[0] || &first.Devices[0] != &second.Devices[0] ||
		&first.Metrics[0] != &second.Metrics[0] {
		t.Error("a repeat snapshot of a finished system did not share its slices with the first")
	}
	if len(first.Streams) != 1000 || first.Decided != 1000 || first.LiveStreams != 0 {
		t.Errorf("finished system: %d streams, %d decided, %d live", len(first.Streams), first.Decided, first.LiveStreams)
	}
	at100, _ := snapshotCost(small)
	if at1000, _ := snapshotCost(large); at100 != at1000 {
		t.Errorf("Snapshot allocates %d times at 100 finished streams and %d times at 1000", at100, at1000)
	}

	unstarted := New(DefaultConfig(vclock.NewVirtual()), blankSpecs(1000))
	unstarted.Snapshot()
	for name, sys := range map[string]*System{"finished": large, "unstarted": unstarted} {
		const n = 1000
		if allocs, bytes := snapshotCost(sys); allocs > 4 || bytes > 8*n+2048 {
			t.Errorf("repeat Snapshot of a %s system at %d streams: %d allocations, %d B; want at most 4 and %d B",
				name, n, allocs, bytes, 8*n+2048)
		}
	}
}

// snapshotCost counts the allocations and bytes of one Snapshot: the
// least of five readings, so that a goroutine an earlier test left
// behind cannot add to it.
func snapshotCost(sys *System) (allocs, bytes uint64) {
	allocs, bytes = ^uint64(0), ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		mallocs, total := ms.Mallocs, ms.TotalAlloc
		sys.Snapshot()
		runtime.ReadMemStats(&ms)
		allocs, bytes = min(allocs, ms.Mallocs-mallocs), min(bytes, ms.TotalAlloc-total)
	}
	return allocs, bytes
}

// TestSettledStreamStillShowsStop covers the one field that can move
// after a stream has settled: StopStream and CancelAll must show in the
// next snapshot although the stream's entry had been final, and only
// the stopped stream gets a new entry.
func TestSettledStreamStillShowsStop(t *testing.T) {
	sys := finishedSystem(t, 3)
	before := sys.Snapshot()
	if before.Streams[1].Stopped {
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
	if sn.Streams[0] != before.Streams[0] || sn.Streams[2] != before.Streams[2] {
		t.Error("StopStream(1) republished the entries of streams it did not stop")
	}
	if before.Streams[1].Stopped {
		t.Error("StopStream(1) wrote into the entry an earlier snapshot published")
	}
	sys.CancelAll()
	for _, ss := range sys.Snapshot().Streams {
		if !ss.Stopped {
			t.Errorf("after CancelAll: stream %d not shown stopped", ss.ID)
		}
	}
}

// monitored runs three online streams that end one after another and
// hands fn every monitor sample.
func monitored(t *testing.T, fn func(sys *System, sn Snapshot)) {
	t.Helper()
	cfg := DefaultConfig(vclock.NewVirtual())
	cfg.Mode = Online
	cfg.DisableSDD = true
	cfg.DisableSNM = true
	sys := New(cfg, []StreamSpec{rawSpec(0, 20), rawSpec(1, 50), rawSpec(2, 80)})
	sys.Monitor(200*time.Millisecond, func(sn Snapshot) { fn(sys, sn) })
	sys.Run()
}

// TestPublishedEntriesMatchLiveState: at every sample each stream's
// published entry is the one the snapshot carries and equals what the
// live stream would report, including entries the System declared
// final and stopped recomputing.
func TestPublishedEntriesMatchLiveState(t *testing.T) {
	finalEarly := false
	monitored(t, func(sys *System, sn Snapshot) {
		for i, st := range sys.streams {
			var live StreamSnapshot
			sys.streamSnapshot(st, &live)
			if sn.Streams[i] != st.pub || *st.pub != live {
				t.Errorf("t=%v stream %d: published %+v, reported %+v, live %+v", sn.At, i, *st.pub, *sn.Streams[i], live)
			}
			finalEarly = finalEarly || (st.pub.settled() && !sn.Finished)
		}
	})
	if !finalEarly {
		t.Error("no stream settled while others still ran; the test is vacuous")
	}
}

// TestPublishedSnapshotsStayPut: a snapshot renders the same JSON after
// the run has gone on and published many more, and a stream whose
// entry did not change shares it with the previous snapshot — every
// stream, live or settled, when the second snapshot is taken at the
// same instant, as the cluster manager does.
func TestPublishedSnapshotsStayPut(t *testing.T) {
	var snaps []Snapshot
	var rendered []string
	shared, renewed := 0, 0
	monitored(t, func(sys *System, sn Snapshot) {
		if again := sys.Snapshot(); len(sn.Streams) > 0 && &again.Streams[0] != &sn.Streams[0] {
			t.Errorf("t=%v: a second snapshot at the same instant published a new stream list", sn.At)
		}
		if len(snaps) > 0 {
			prev := snaps[len(snaps)-1]
			for i, ss := range prev.Streams {
				switch {
				case *ss == *sn.Streams[i] && ss != sn.Streams[i]:
					t.Errorf("t=%v stream %d: unchanged entry republished", sn.At, i)
				case ss == sn.Streams[i]:
					shared++
				default:
					renewed++
				}
			}
		}
		snaps = append(snaps, sn)
		rendered = append(rendered, sn.JSON())
	})
	if shared == 0 || renewed == 0 {
		t.Fatalf("%d entries shared and %d renewed across samples; want some of each", shared, renewed)
	}
	for i, sn := range snaps {
		if got := sn.JSON(); got != rendered[i] {
			t.Fatalf("snapshot %d changed after publication:\n%s\nthen:\n%s", i, rendered[i], got)
		}
	}
}
