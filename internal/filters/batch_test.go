package filters

import (
	"math/rand"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

// TestProcessBatchMatchesSequential: one multi-sample forward must give
// exactly the per-frame verdicts, probabilities, and stats — the layers
// compute each batched sample with the same per-sample loops, so the
// dynamic-batch knob is a pure throughput optimization.
func TestProcessBatchMatchesSequential(t *testing.T) {
	cfg := vidgen.Small(4, frame.ClassCar, 0.4)
	frames := vidgen.Generate(vidgen.New(cfg), 24)

	seq := NewSNM(benchNet(rand.New(rand.NewSource(2))), 0.2, 0.8, 0.5)
	bat := NewSNM(benchNet(rand.New(rand.NewSource(2))), 0.2, 0.8, 0.5)

	for lo := 0; lo < len(frames); {
		hi := lo + 1 + lo%7 // varying batch sizes, including 1
		if hi > len(frames) {
			hi = len(frames)
		}
		batch := frames[lo:hi]

		want := make([]Verdict, len(batch))
		wantP := make([]float64, len(batch))
		for i, f := range batch {
			want[i] = seq.Process(f)
			wantP[i] = seq.LastProb()
		}
		got := bat.ProcessBatch(batch)
		if len(got) != len(batch) {
			t.Fatalf("batch [%d,%d): %d verdicts for %d frames", lo, hi, len(got), len(batch))
		}
		for i := range batch {
			if got[i] != want[i] {
				t.Fatalf("frame %d: batch verdict %v, sequential %v", lo+i, got[i], want[i])
			}
		}
		if bat.LastProb() != wantP[len(wantP)-1] {
			t.Fatalf("batch [%d,%d): LastProb %v, sequential %v", lo, hi, bat.LastProb(), wantP[len(wantP)-1])
		}
		lo = hi
	}

	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverged: sequential %+v, batch %+v", seq.Stats(), bat.Stats())
	}
}

func TestProcessBatchEmpty(t *testing.T) {
	snm := NewSNM(benchNet(rand.New(rand.NewSource(3))), 0.2, 0.8, 0.5)
	if v := snm.ProcessBatch(nil); v != nil {
		t.Fatalf("ProcessBatch(nil) = %v, want nil", v)
	}
	if snm.Stats().Processed != 0 {
		t.Fatalf("empty batch touched stats: %+v", snm.Stats())
	}
}

// TestAppendBatchResultsAreTheCallers: two callers sharing one SNM (a
// migrated stream's old and new pipeline fragments) each keep their
// own verdicts; a batch decided in between does not rewrite them.
func TestAppendBatchResultsAreTheCallers(t *testing.T) {
	cfg := vidgen.Small(4, frame.ClassCar, 0.5)
	frames := vidgen.Generate(vidgen.New(cfg), 16)
	ref := NewSNM(benchNet(rand.New(rand.NewSource(2))), 0.2, 0.8, 0.5)
	want := ref.ProcessBatch(frames[:8])

	snm := NewSNM(benchNet(rand.New(rand.NewSource(2))), 0.2, 0.8, 0.5)
	old := snm.AppendBatch(make([]Verdict, 0, 8), frames[:8])
	for range 3 {
		// A warm dst of the same capacity is where a shared result
		// slice would be refilled in place.
		snm.AppendBatch(make([]Verdict, 0, 8), frames[8:])
	}
	for i := range want {
		if old[i] != want[i] {
			t.Fatalf("frame %d: verdict %v after later batches, want %v", i, old[i], want[i])
		}
	}
}
