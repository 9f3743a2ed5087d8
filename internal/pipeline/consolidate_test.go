package pipeline

// Tests for object-level consolidation of the reference tier: frame
// conservation through the consolidator, the per-canvas charge model
// actually consolidating (fewer canvases than served frames), the dual
// count tally, and byte-determinism of consolidated runs.

import (
	"bytes"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// runConsolidated builds and runs a fresh consolidated system and
// returns its report plus the JSONL trace export.
func runConsolidated(t *testing.T, streams, frames int) (*Report, []byte) {
	t.Helper()
	clk := vclock.NewVirtual()
	cfg := DefaultConfig(clk)
	cfg.DisableSDD = true // drive plenty of frames into the reference tier
	cfg.DisableSNM = true
	cfg.Consolidate = true
	tr := trace.New(trace.Options{})
	cfg.Tracer = tr

	specs := make([]StreamSpec, streams)
	for i := range specs {
		specs[i] = rawSpec(i, frames)
	}
	sys := New(cfg, specs)
	rep := sys.Run() // panics if any frame lost its disposition

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	return rep, buf.Bytes()
}

func TestConsolidateConservesAndPacks(t *testing.T) {
	const streams, frames = 3, 120
	rep, _ := runConsolidated(t, streams, frames)

	if rep.TotalFrames != int64(streams*frames) {
		t.Fatalf("ingested %d frames, want %d", rep.TotalFrames, streams*frames)
	}
	var detected int64
	for _, sr := range rep.Streams {
		detected += sr.Counts[Detected]
		for seq, rec := range sr.Records {
			if !rec.Done {
				t.Fatalf("stream %d frame %d has no record", sr.ID, seq)
			}
			if rec.Disposition == Detected {
				if rec.RefCount < 0 || rec.RefFullCount < 0 {
					t.Fatalf("stream %d frame %d: consolidated record missing a tally: ref=%d full=%d",
						sr.ID, seq, rec.RefCount, rec.RefFullCount)
				}
				if rec.RefCount > rec.RefFullCount {
					t.Fatalf("stream %d frame %d: crops counted %d > full frame %d — clipping can only lose objects",
						sr.ID, seq, rec.RefCount, rec.RefFullCount)
				}
			}
		}
	}
	if detected == 0 {
		t.Fatal("no frame reached the reference tier; the consolidator never ran")
	}
	if rep.StageProcessed[4] != detected {
		t.Fatalf("reference served %d, detected %d", rep.StageProcessed[4], detected)
	}
	if rep.RefCanvases == 0 {
		t.Fatal("no canvases charged")
	}
	if rep.RefCanvases >= detected {
		t.Fatalf("canvases %d >= served frames %d: consolidation saved nothing",
			rep.RefCanvases, detected)
	}
}

// TestConsolidatePoolsBalance: every image plane and every frame plane a
// consolidated run borrows goes back to its pool — the canvases
// serveCanvases packs included, which nothing else would notice leaking.
func TestConsolidatePoolsBalance(t *testing.T) {
	imgGets0, imgPuts0 := imgproc.PoolStats()
	frameGets0, framePuts0 := frame.PoolStats()
	rep, _ := runConsolidated(t, 2, 90)
	if rep.RefCanvases == 0 {
		t.Fatal("no canvases packed; the test no longer probes the consolidator")
	}
	imgGets, imgPuts := imgproc.PoolStats()
	frameGets, framePuts := frame.PoolStats()
	if gets, puts := imgGets-imgGets0, imgPuts-imgPuts0; gets != puts {
		t.Errorf("imgproc pool: %d gets, %d puts", gets, puts)
	}
	if gets, puts := frameGets-frameGets0, framePuts-framePuts0; gets != puts || gets == 0 {
		t.Errorf("frame pool: %d gets, %d puts", gets, puts)
	}
}

func TestConsolidateDeterministic(t *testing.T) {
	rep1, jsonl1 := runConsolidated(t, 2, 90)
	rep2, jsonl2 := runConsolidated(t, 2, 90)
	if rep1.String() != rep2.String() {
		t.Fatalf("reports differ:\n%s\n---\n%s", rep1, rep2)
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Fatal("two seeded consolidated runs produced different trace event logs")
	}
}

// TestConsolidateMatchesFullFrameCounts pins the accuracy accounting:
// with a canvas big enough and generous coverage padding, most
// consolidated counts must agree with the full-frame reference, and the
// disagreements must all be undercounts (truncation).
func TestConsolidateAccuracyDelta(t *testing.T) {
	rep, _ := runConsolidated(t, 2, 150)
	var frames, exact int64
	for _, sr := range rep.Streams {
		for _, rec := range sr.Records {
			if rec.Disposition != Detected || rec.RefFullCount < 0 {
				continue
			}
			frames++
			if rec.RefCount == rec.RefFullCount {
				exact++
			}
		}
	}
	if frames == 0 {
		t.Skip("no reference-decided frames at this workload")
	}
	if float64(exact) < 0.5*float64(frames) {
		t.Fatalf("only %d/%d consolidated counts matched full-frame reference", exact, frames)
	}
}
