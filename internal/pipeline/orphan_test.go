package pipeline

// Regression tests for the refStage orphan-frame leak: a frame that
// reaches the reference queue after its stream was retired or migrated
// has no record slot, but its pooled pixel plane must still be released
// and its trace must still reach the tracer's terminal. Before the fix
// both orphan branches in refStage continued without either, leaking
// the plane and the refcounted FrameTrace for every orphan.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ffsva/internal/frame"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// runWithOrphans runs a small system while a clock process injects
// frames whose stream the system has never heard of — the in-flight
// residue of a retired/migrated stream — straight into the reference
// queue. It returns the snapshot, the pool get/put delta over the run,
// and the Perfetto trace-event export.
func runWithOrphans(t *testing.T, orphans int, consolidate bool) (Snapshot, int64, []byte) {
	t.Helper()
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk)
	cfg.DisableSDD = true
	cfg.DisableSNM = true
	cfg.Consolidate = consolidate
	tr := trace.New(trace.Options{})
	cfg.Tracer = tr

	getsBefore, putsBefore := frame.PoolStats()
	pools := readPools()
	sys := New(cfg, []StreamSpec{rawSpec(0, 90)})
	sys.Start()
	clk.Go("migrated-stream-residue", func() {
		// Inject early: the reference queue closes once the last T-YOLO
		// worker exits, and the whole offline run spans well under a
		// second of virtual time.
		clk.Sleep(50 * time.Millisecond)
		for i := 0; i < orphans; i++ {
			f := frame.NewPooled(64, 48)
			for j := range f.Pix {
				f.Pix[j] = 0
			}
			f.StreamID = 999 // no such stream on this instance
			f.Seq = int64(i)
			f.Captured = clk.Now()
			f.Trace = tr.StartFrame(f.StreamID, f.Seq, 0, clk.Now())
			if !sys.refQ.Put(f) {
				t.Errorf("orphan %d: reference queue already closed; inject earlier", i)
				f.Trace = nil
				f.Release()
			}
			clk.Sleep(5 * time.Millisecond)
		}
	})
	clk.Run()
	sys.Report() // conservation must still hold for the owned stream
	sn := sys.Snapshot()

	getsAfter, putsAfter := frame.PoolStats()
	delta := (getsAfter - getsBefore) - (putsAfter - putsBefore)
	// The owned stream's frames are captured and the orphans pooled:
	// their headers, and the captured frames' records, balance too.
	if msg := pools.Unbalanced(); msg != "" || pools.headersTaken() != int64(90+orphans) {
		t.Errorf("consolidate=%v: %s%d of %d frame headers taken", consolidate, msg, pools.headersTaken(), 90+orphans)
	}

	return sn, delta, traceEvents(t, tr)
}

// orphanedFrames counts the distinct (stream, seq) frames whose spans
// carry the "orphaned" disposition in a trace-event export: a frame
// renders one span per segment, so spans overcount frames.
func orphanedFrames(t *testing.T, export []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Stream      int    `json:"stream"`
				Seq         int64  `json:"seq"`
				Disposition string `json:"disposition"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(export, &doc); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	type key struct {
		stream int
		seq    int64
	}
	frames := map[key]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args.Disposition == "orphaned" {
			frames[key{ev.Args.Stream, ev.Args.Seq}] = true
		}
	}
	return len(frames)
}

// TestOrphanConservation fails on the pre-fix code: the orphan branches
// counted the frame but released nothing, so the pool get/put balance
// drifted by one per orphan and the orphans' traces never finished.
func TestOrphanConservation(t *testing.T) {
	const orphans = 7
	for _, consolidate := range []bool{false, true} {
		sn, delta, export := runWithOrphans(t, orphans, consolidate)
		if sn.Orphaned != orphans {
			t.Fatalf("consolidate=%v: Orphaned = %d, want %d", consolidate, sn.Orphaned, orphans)
		}
		if delta != 0 {
			t.Fatalf("consolidate=%v: pool gets-puts drifted by %d over the run: orphaned frames were not released",
				consolidate, delta)
		}
		want := orphans
		if got := orphanedFrames(t, export); got != want {
			t.Fatalf("consolidate=%v: %d orphaned traces reached the tracer terminal, want %d",
				consolidate, got, want)
		}
	}
}

// TestOrphanDeterminism pins byte-identical event logs across two
// seeded runs that orphan frames mid-flight, under both reference
// modes.
func TestOrphanDeterminism(t *testing.T) {
	for _, consolidate := range []bool{false, true} {
		_, _, a := runWithOrphans(t, 5, consolidate)
		_, _, b := runWithOrphans(t, 5, consolidate)
		if !bytes.Equal(a, b) {
			t.Fatalf("consolidate=%v: two seeded runs with orphans diverged", consolidate)
		}
	}
}
