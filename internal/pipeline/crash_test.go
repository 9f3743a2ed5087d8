package pipeline

import (
	"testing"
	"time"

	"ffsva/internal/frame"
	"ffsva/internal/vclock"
)

// TestCrashWithFramesParkedAtEveryTier crashes an offline, multi-stream
// instance at the first instant its SDD, SNM, T-YOLO and reference
// queues all hold frames. Every stage must drain what it dequeues after
// the crash: each parked frame retires as DropError, the ledger
// balances, and every pooled plane goes back to the pool.
func TestCrashWithFramesParkedAtEveryTier(t *testing.T) {
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk)
	cfg.DisableSDD = true
	cfg.DisableSNM = true

	getsBefore, putsBefore := frame.PoolStats()
	sys := New(cfg, []StreamSpec{rawSpec(0, 120), rawSpec(1, 120), rawSpec(2, 120)})
	sys.Start()
	parked := -1
	clk.Go("crash", func() {
		for !sys.Finished() {
			sn := sys.Snapshot()
			var sdd, snm, ty int
			for _, ss := range sn.Streams {
				sdd += ss.SDDQ.Depth
				snm += ss.SNMQ.Depth
				ty += ss.TYQ.Depth
			}
			if sdd > 0 && snm > 0 && ty > 0 && sn.RefQ.Depth > 0 {
				parked = sdd + snm + ty + sn.RefQ.Depth
				sys.Crash()
				return
			}
			clk.Sleep(time.Millisecond)
		}
	})
	clk.Run()
	if parked < 0 {
		t.Fatal("no instant had frames parked at every tier; the test no longer probes the crash drain")
	}

	sn := sys.Snapshot()
	if sn.InFlight != 0 || sn.Decided != sn.Ingested {
		t.Fatalf("after the crash %d of %d ingested frames were never decided", sn.Ingested-sn.Decided, sn.Ingested)
	}
	if got := sn.Drops[DropError]; got < int64(parked) {
		t.Fatalf("DropError = %d, want at least the %d frames parked at the crash", got, parked)
	}
	getsAfter, putsAfter := frame.PoolStats()
	if d := (getsAfter - getsBefore) - (putsAfter - putsBefore); d != 0 {
		t.Fatalf("pool gets-puts drifted by %d: drained frames were not released", d)
	}
	rep := sys.Report() // panics on a hole in the ledger
	if !rep.Crashed {
		t.Fatal("report does not mark the crash")
	}
}
