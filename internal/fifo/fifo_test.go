package fifo

import (
	"math/rand"
	"testing"
)

// TestBufferMatchesSliceQueue drives a Buffer and a plain slice queue
// with the same random pushes and pops: the popped sequence and the
// length agree throughout, popped slots hold no reference, and the
// backing array stays within four times the largest length ever queued
// (plus slack for append's rounding).
func TestBufferMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b Buffer[*int]
	var ref []*int
	peak := 0
	for i := 0; i < 100000; i++ {
		// Phases of net growth and net shrinkage.
		pushBias := 3
		if i/1000%2 == 1 {
			pushBias = 7
		}
		if rng.Intn(10) >= pushBias || len(ref) == 0 {
			x := new(int)
			*x = i
			b.Push(x)
			ref = append(ref, x)
		} else {
			if got, want := b.Pop(), ref[0]; got != want {
				t.Fatalf("op %d: popped %d, want %d", i, *got, *want)
			}
			ref = ref[1:]
		}
		if b.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", i, b.Len(), len(ref))
		}
		peak = max(peak, len(ref))
		for _, x := range b.buf[:b.head] {
			if x != nil {
				t.Fatalf("op %d: a popped slot still holds %d", i, *x)
			}
		}
	}
	if cap(b.buf) > 4*peak+8 {
		t.Fatalf("backing array %d for a peak of %d queued", cap(b.buf), peak)
	}
}

// TestBufferSteadyStateAllocatesNothing: once its array has grown to the
// queue's working depth, pushing and popping allocates nothing.
func TestBufferSteadyStateAllocatesNothing(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 5; i++ {
		b.Push(i)
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.Push(1); b.Pop() }); allocs != 0 {
		t.Fatalf("push+pop at depth 5 allocated %v times per run", allocs)
	}
}
