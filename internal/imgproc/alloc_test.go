package imgproc

import (
	"runtime"
	"testing"
)

// gcBetween is testing.AllocsPerRun with two collections inside every
// iteration: a count that holds here does not depend on when the
// collector runs, which is what keeps the benchmark's allocation
// metrics comparable between runs.
func gcBetween(f func()) float64 {
	return testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		f()
	})
}

func TestPooledKernelsDoNotAllocate(t *testing.T) {
	var keep *Gray
	if allocs := gcBetween(func() {
		keep = GetGray(100, 100)
		keep.Release()
	}); allocs != 1 {
		t.Errorf("GetGray+Release: %v allocations, want 1 (the header)", allocs)
	}

	src := benchImage(320, 240)
	small, blur, mask := NewGray(208, 208), NewGray(208, 208), NewGray(208, 208)
	if allocs := gcBetween(func() {
		ResizeInto(src, small)
		BoxBlur3Into(small, blur)
		BinarizeInto(blur, 128, mask)
	}); allocs != 0 {
		t.Errorf("inline resize+blur+binarize: %v allocations, want 0", allocs)
	}

	empty := NewGray(208, 208)
	if allocs := gcBetween(func() { ConnectedComponents(empty, 1) }); allocs != 0 {
		t.Errorf("ConnectedComponents on an empty mask: %v allocations, want 0", allocs)
	}
}
