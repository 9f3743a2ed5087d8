package queue

import (
	"testing"

	"ffsva/internal/vclock"
)

// TestPutGetHopAllocatesNothing: once warm, a Put that a consumer process
// takes with Get — a one-slot queue, so every item is a handoff between
// two processes and back — allocates nothing.
func TestPutGetHopAllocatesNothing(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "hop", 1)
	var allocs float64
	clk.Go("producer", func() {
		allocs = testing.AllocsPerRun(1000, func() { q.Put(1) })
		q.Close()
	})
	clk.Go("consumer", func() {
		for {
			if _, ok := q.Get(); !ok {
				return
			}
		}
	})
	clk.Run()
	if allocs != 0 {
		t.Fatalf("Put→Get hop allocated %v times per item", allocs)
	}
}

// TestBatchDrainsRefillCallerBuffer: GetUpTo and GetExact append into
// the caller's slice from its start, keep the oldest-first order, and a
// caller that passes each batch back drains without allocating.
func TestBatchDrainsRefillCallerBuffer(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "batches", 8)
	var allocs float64
	clk.Go("producer", func() {
		for i := 0; ; i++ {
			if !q.Put(i) {
				return
			}
		}
	})
	clk.Go("consumer", func() {
		defer q.Close()
		buf := make([]int, 3, 4)
		next := 0
		check := func(b []int, want int) {
			if len(b) != want || &b[0] != &buf[0] {
				t.Errorf("batch of %d at %p, want %d in the caller's array %p", len(b), &b[0], want, &buf[0])
				return
			}
			for _, v := range b {
				if v != next {
					t.Errorf("batch %v, want it to start at %d", b, next)
				}
				next++
			}
		}
		check(q.GetExact(buf, 4), 4)
		check(q.GetUpTo(buf, 4), 4)
		check(q.GetExact(buf, 2), 2)
		if b := q.GetUpTo(buf, 0); len(b) != 0 {
			t.Errorf("GetUpTo(buf, 0) returned %d items", len(b))
		}
		allocs = testing.AllocsPerRun(200, func() {
			buf = q.GetUpTo(buf, 4)
			buf = q.GetExact(buf, 4)
		})
	})
	clk.Run()
	if allocs != 0 {
		t.Fatalf("reused batch drains allocated %v times per run", allocs)
	}
}
