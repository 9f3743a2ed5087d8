package pipeline

// White-box tests for the closed-queue frame accounting. They live inside
// the package because no public API severs a pipeline edge mid-run: the
// failure mode under test (a stage's Put returning false after a
// downstream Close) is reached here by closing a stage's output queue
// out from under it.

import (
	"testing"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/vclock"
	"ffsva/internal/vidgen"
)

// rawSpec builds a StreamSpec without the lab trainer (importing lab here
// would cycle): a real SDD, an SNM with no network (callers run it
// ablated via DisableSNM), and a real T-YOLO over the tiny-grid detector.
func rawSpec(id, frames int) StreamSpec {
	vcfg := vidgen.Small(int64(900+id), frame.ClassCar, 0.5)
	vcfg.StreamID = id
	return StreamSpec{
		ID:     id,
		Source: vidgen.New(vcfg),
		Frames: frames,
		FPS:    30,
		SDD:    filters.NewSDD(imgproc.NewGray(filters.SDDSize, filters.SDDSize), 0.1, filters.MetricMSE),
		SNM:    filters.NewSNM(nil, 0.3, 0.7, 0.5),
		TYolo:  filters.NewTYolo(detect.NewTinyGrid(detect.DefaultTinyGridConfig()), frame.ClassCar, 1),
		Target: frame.ClassCar,
	}
}

// TestClosedQueuePutsAccounted is the regression test for the silent
// frame-loss bug: before the fix, a frame whose downstream queue had been
// closed was discarded with no Record, leaving Done=false holes that
// skewed accuracy and latency accounting — and Report had no assertion to
// notice. Now such frames get an explicit DropClosed disposition and
// Report's conservation check would panic if any frame still vanished.
// Every internal edge that can be closed under its producer is cut in
// turn (the SDD→SNM edge with and without the SDD ablation, since each
// has its own put), so a producer that puts a frame without forward
// fails here. The SNM stage runs ablated: rawSpec has no trained net.
func TestClosedQueuePutsAccounted(t *testing.T) {
	edges := []struct {
		name       string
		disableSDD bool
		cut        func(*System)
	}{
		{"sdd-snm", false, func(sys *System) { sys.streams[0].snmQ.Close() }},
		{"no-sdd-snm", true, func(sys *System) { sys.streams[0].snmQ.Close() }},
		{"snm-t-yolo", false, func(sys *System) { sys.streams[0].tyQ.Close() }},
		{"t-yolo-ref", false, func(sys *System) { sys.refQ.Close() }},
	}
	for _, e := range edges {
		t.Run(e.name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			cfg := DefaultConfig(clk)
			cfg.Mode = Online
			cfg.DisableSDD = e.disableSDD
			cfg.DisableSNM = true

			const frames = 150
			getsBefore, putsBefore := frame.PoolStats()
			sys := New(cfg, []StreamSpec{rawSpec(0, frames)})
			sys.Start()
			clk.Go("saboteur", func() {
				clk.Sleep(2 * time.Second)
				e.cut(sys)
			})
			clk.Run()
			rep := sys.Report() // pre-fix: panics on unaccounted frames

			sr := rep.Streams[0]
			if sr.Counts[DropClosed] == 0 {
				t.Fatal("no DropClosed records: frames hitting the closed queue were lost silently")
			}
			var sum int64
			for _, c := range sr.Counts {
				sum += c
			}
			if sum != frames || sr.Ingested != frames {
				t.Fatalf("dispositions %v sum %d, ingested %d, want %d", sr.Counts, sum, sr.Ingested, frames)
			}
			for seq, rec := range sr.Records {
				if !rec.Done {
					t.Fatalf("frame %d has no record", seq)
				}
				if rec.Disposition == DropClosed && rec.Decided < rec.Captured {
					t.Fatalf("frame %d: DropClosed decided %v before captured %v", seq, rec.Decided, rec.Captured)
				}
			}
			getsAfter, putsAfter := frame.PoolStats()
			if d := (getsAfter - getsBefore) - (putsAfter - putsBefore); d != 0 {
				t.Fatalf("pool gets-puts drifted by %d: closed-edge frames were not released", d)
			}
		})
	}
}

// TestReportPanicsOnLostFrame proves the conservation assertion itself
// works: hand-destroying a record after a clean run must make Report
// refuse to produce numbers.
func TestReportPanicsOnLostFrame(t *testing.T) {
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk)
	cfg.DisableSDD = true
	cfg.DisableSNM = true
	sys := New(cfg, []StreamSpec{rawSpec(1, 40)})
	sys.Start()
	clk.Run()
	sys.streams[0].records[7] = Record{} // simulate a silently lost frame
	defer func() {
		if recover() == nil {
			t.Fatal("Report accepted a stream with an unaccounted frame")
		}
	}()
	sys.Report()
}
