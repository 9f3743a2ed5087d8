package queue

import (
	"testing"
	"testing/quick"
	"time"

	"ffsva/internal/vclock"
)

func TestFIFOOrderVirtual(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 4)
	var got []int
	clk.Go("producer", func() {
		for i := 0; i < 100; i++ {
			q.Put(i)
		}
		q.Close()
	})
	clk.Go("consumer", func() {
		for {
			v, ok := q.Get()
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	clk.Run()
	if len(got) != 100 {
		t.Fatalf("got %d items, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, FIFO violated", i, v)
		}
	}
}

func TestBoundedDepthVirtual(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 3)
	clk.Go("producer", func() {
		for i := 0; i < 50; i++ {
			q.Put(i)
		}
		q.Close()
	})
	clk.Go("consumer", func() {
		for {
			if _, ok := q.Get(); !ok {
				return
			}
			clk.Sleep(time.Millisecond) // slow consumer forces backpressure
		}
	})
	clk.Run()
	st := q.Stats()
	if st.MaxDepth > 3 {
		t.Fatalf("max depth %d exceeded capacity 3", st.MaxDepth)
	}
	if st.BlockedPuts == 0 {
		t.Fatal("expected blocked puts under a slow consumer")
	}
	if st.Puts != 50 || st.Gets != 50 {
		t.Fatalf("puts/gets = %d/%d, want 50/50", st.Puts, st.Gets)
	}
}

func TestNoLossUnderBackpressure(t *testing.T) {
	// Property: with P producers and one slow consumer, every item put
	// is eventually got exactly once.
	f := func(nProducers uint8, perProducer uint8) bool {
		p := int(nProducers%4) + 1
		n := int(perProducer%30) + 1
		clk := vclock.NewVirtual()
		q := New[[2]int](clk, "q", 2)
		done := 0
		for pi := 0; pi < p; pi++ {
			pi := pi
			clk.Go("prod", func() {
				for i := 0; i < n; i++ {
					q.Put([2]int{pi, i})
				}
				done++
				if done == p {
					q.Close()
				}
			})
		}
		seen := make(map[[2]int]int)
		clk.Go("cons", func() {
			for {
				v, ok := q.Get()
				if !ok {
					return
				}
				seen[v]++
				clk.Sleep(100 * time.Microsecond)
			}
		})
		clk.Run()
		if len(seen) != p*n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGetUpToDrainsAvailable(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 10)
	var batches [][]int
	clk.Go("producer", func() {
		for i := 0; i < 7; i++ {
			q.Put(i)
		}
		clk.Sleep(time.Second)
		q.Put(7)
		q.Close()
	})
	clk.Go("consumer", func() {
		clk.Sleep(10 * time.Millisecond)
		// Dynamic batch: should take all 7 available, not wait for 30.
		b := q.GetUpTo(nil, 30)
		batches = append(batches, b)
		b = q.GetUpTo(nil, 30) // blocks until item 7 appears
		batches = append(batches, b)
	})
	clk.Run()
	if len(batches) != 2 || len(batches[0]) != 7 || len(batches[1]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
}

func TestGetExactWaitsForFullBatch(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 10)
	var when time.Duration
	var batch []int
	clk.Go("producer", func() {
		for i := 0; i < 5; i++ {
			clk.Sleep(time.Second)
			q.Put(i)
		}
		q.Close()
	})
	clk.Go("consumer", func() {
		batch = q.GetExact(nil, 5)
		when = clk.Now()
	})
	clk.Run()
	if len(batch) != 5 {
		t.Fatalf("batch len %d, want 5", len(batch))
	}
	if when != 5*time.Second {
		t.Fatalf("static batch completed at %v, want 5s (waited for full batch)", when)
	}
}

func TestGetExactClampsToCapacity(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 3)
	var batch []int
	clk.Go("producer", func() {
		for i := 0; i < 3; i++ {
			q.Put(i)
		}
	})
	clk.Go("consumer", func() {
		batch = q.GetExact(nil, 100) // would deadlock without the clamp
	})
	clk.Run()
	if len(batch) != 3 {
		t.Fatalf("clamped batch len = %d, want 3", len(batch))
	}
}

func TestGetExactReturnsRemainderOnClose(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 10)
	var batch []int
	clk.Go("producer", func() {
		q.Put(1)
		q.Put(2)
		q.Close()
	})
	clk.Go("consumer", func() {
		clk.Sleep(time.Millisecond)
		batch = q.GetExact(nil, 5)
	})
	clk.Run()
	if len(batch) != 2 {
		t.Fatalf("remainder batch len = %d, want 2", len(batch))
	}
}

func TestTryGetTryPut(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 2)
	clk.Go("p", func() {
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty queue succeeded")
		}
		if !q.TryPut(1) || !q.TryPut(2) {
			t.Error("TryPut failed with space available")
		}
		if q.TryPut(3) {
			t.Error("TryPut succeeded on full queue")
		}
		if v, ok := q.TryGet(); !ok || v != 1 {
			t.Errorf("TryGet = %v, %v", v, ok)
		}
	})
	clk.Run()
}

func TestCloseSemantics(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 2)
	clk.Go("p", func() {
		q.Put(1)
		q.Close()
		if q.Put(2) {
			t.Error("Put after Close succeeded")
		}
		if !q.Closed() {
			t.Error("Closed() = false after Close")
		}
		if q.Drained() {
			t.Error("Drained() = true with item remaining")
		}
		if v, ok := q.Get(); !ok || v != 1 {
			t.Errorf("Get after close = %v, %v", v, ok)
		}
		if _, ok := q.Get(); ok {
			t.Error("Get on drained closed queue succeeded")
		}
		if !q.Drained() {
			t.Error("Drained() = false after drain")
		}
	})
	clk.Run()
}

func TestCloseUnblocksWaiters(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "q", 1)
	unblocked := 0
	clk.Go("getter", func() {
		// Receives the putter's first item, then blocks on the empty
		// queue until Close unblocks it.
		if v, ok := q.Get(); !ok || v != 1 {
			t.Errorf("first Get = %v, %v", v, ok)
		}
		if _, ok := q.Get(); ok {
			t.Error("Get on empty closed queue returned ok")
		}
		unblocked++
	})
	clk.Go("putter", func() {
		q.Put(1)
		clk.Sleep(2 * time.Second) // let the closer run while we're idle
		if q.Put(2) {
			t.Error("Put after Close succeeded")
		}
		unblocked++
	})
	clk.Go("closer", func() {
		clk.Sleep(time.Second)
		q.Close()
	})
	clk.Run()
	if unblocked != 2 {
		t.Fatalf("unblocked = %d, want 2", unblocked)
	}
}

// TestRealClockQueue hands items from a producer to a consumer on the
// wall-paced clock that real-time runs use: every item arrives, and the
// run takes at least as much wall time as the virtual time it spans.
func TestRealClockQueue(t *testing.T) {
	clk := vclock.NewPaced()
	q := New[int](clk, "q", 8)
	const n = 1000
	sum := 0
	clk.Go("producer", func() {
		for i := 1; i <= n; i++ {
			clk.Sleep(time.Microsecond)
			q.Put(i)
		}
		q.Close()
	})
	clk.Go("consumer", func() {
		for {
			v, ok := q.Get()
			if !ok {
				return
			}
			sum += v
		}
	})
	start := time.Now()
	clk.Run()
	wall := time.Since(start)
	if want := n * (n + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if clk.Now() != n*time.Microsecond {
		t.Fatalf("run ended at %v, want %v", clk.Now(), n*time.Microsecond)
	}
	if wall < clk.Now() {
		t.Fatalf("paced run took %v of wall time for %v of virtual time", wall, clk.Now())
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int](vclock.NewVirtual(), "q", 0)
}
