package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 4096, 100_000} {
		hits := make([]int32, n)
		For(n, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForChunksBoundariesDependOnlyOnSize(t *testing.T) {
	const n, size = 100_000, 1 << 14
	nc := NumChunks(n, size)
	if nc != 7 {
		t.Fatalf("NumChunks = %d, want 7", nc)
	}
	// The same (n, size) must shard identically under any worker count:
	// chunk ci covers [ci*size, min(n, (ci+1)*size)).
	for _, w := range []int{1, 4} {
		prev := SetWorkers(w)
		seen := make([]int64, nc)
		ForChunks(n, size, func(ci, lo, hi int) {
			if lo != ci*size {
				t.Errorf("w=%d chunk %d: lo = %d, want %d", w, ci, lo, ci*size)
			}
			want := lo + size
			if want > n {
				want = n
			}
			if hi != want {
				t.Errorf("w=%d chunk %d: hi = %d, want %d", w, ci, hi, want)
			}
			atomic.AddInt64(&seen[ci], 1)
		})
		SetWorkers(prev)
		for ci, c := range seen {
			if c != 1 {
				t.Fatalf("w=%d: chunk %d ran %d times", w, ci, c)
			}
		}
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	orig := Workers()
	if prev := SetWorkers(1); prev != orig {
		t.Fatalf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 1 {
		t.Fatalf("Workers = %d after SetWorkers(1)", Workers())
	}
	SetWorkers(orig)
	if Workers() != orig {
		t.Fatalf("Workers = %d, want %d restored", Workers(), orig)
	}
}

// TestNestedForNoDeadlock proves a kernel may call another kernel: the
// non-blocking submit falls back to inline execution when every worker
// is busy, so nesting can starve but never deadlock.
func TestNestedForNoDeadlock(t *testing.T) {
	var total atomic.Int64
	For(64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(64, 1, func(lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			})
		}
	})
	if got := total.Load(); got != 64*64 {
		t.Fatalf("nested total = %d, want %d", got, 64*64)
	}
}

// TestConcurrentKernels races many goroutines through For and the
// slice pool at once; run with -race.
func TestConcurrentKernels(t *testing.T) {
	var pool SlicePool[float32]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				buf := pool.Get(1024)
				For(len(buf), 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] = float32(g*iter + i)
					}
				})
				for i, v := range buf {
					if v != float32(g*iter+i) {
						t.Errorf("g=%d iter=%d: buf[%d] = %v", g, iter, i, v)
						return
					}
				}
				pool.Put(buf)
			}
		}(g)
	}
	wg.Wait()
}

// TestSlicePoolRetentionLimit: a length's free list keeps maxFree slices
// and drops the rest, by count alone — so a process that starts cold
// allocates at most maxFree slices per length more than a warm one.
func TestSlicePoolRetentionLimit(t *testing.T) {
	var pool SlicePool[uint8]
	filed := make(map[*uint8]bool)
	for i := 0; i < maxFree+8; i++ {
		s := make([]uint8, 32)
		filed[&s[0]] = true
		pool.Put(s)
	}
	pool.Put(make([]uint8, 48)) // a full list does not close the other lengths
	recycled := 0
	for i := 0; i < maxFree+8; i++ {
		if s := pool.Get(32); filed[&s[0]] {
			recycled++
		}
	}
	if recycled != maxFree {
		t.Fatalf("recycled %d of %d filed slices, want maxFree = %d", recycled, maxFree+8, maxFree)
	}
	if allocs := testing.AllocsPerRun(10, func() { pool.Put(pool.Get(48)) }); allocs != 0 {
		t.Fatalf("Get/Put of another length allocated %v times per run", allocs)
	}
}

func TestSlicePoolLengthBuckets(t *testing.T) {
	var pool SlicePool[uint8]
	a := pool.Get(100)
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	a[0] = 0xAA
	pool.Put(a)
	b := pool.Get(200) // different bucket: must not receive a's backing array
	if len(b) != 200 {
		t.Fatalf("len = %d", len(b))
	}
	pool.Put(b)
	if pool.Get(0) != nil || pool.Get(-3) != nil {
		t.Fatal("non-positive length returned a slice")
	}
	pool.Put(nil) // filing nothing is a no-op

	// The free lists are LIFO and outlive garbage collections: the slice
	// filed last comes back first, and a warm Get/Put pair allocates
	// nothing whatever the collector did in between.
	c := pool.Get(100)
	if &c[0] != &a[0] || c[0] != 0xAA {
		t.Fatal("Get(100) did not return the slice filed for that length")
	}
	pool.Put(c)
	if allocs := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		pool.Put(pool.Get(100))
		pool.Put(pool.Get(200))
	}); allocs != 0 {
		t.Fatalf("warm Get/Put allocated %v times per run", allocs)
	}

	// Hammer: goroutines trade slices of a few lengths through one pool.
	// Every slice is stamped by its holder and checked before it is
	// filed, so two goroutines holding one slice would show here (and
	// under -race).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lengths := []int{64, 100, 200, 4096}
			held := make([][]uint8, 0, 4)
			for iter := 0; iter < 400; iter++ {
				s := pool.Get(lengths[(g+iter)%len(lengths)])
				for i := range s {
					s[i] = uint8(g)
				}
				held = append(held, s)
				if len(held) == cap(held) {
					for _, h := range held {
						for i, v := range h {
							if v != uint8(g) {
								t.Errorf("goroutine %d: slice of %d overwritten at %d while held", g, len(h), i)
								return
							}
						}
						pool.Put(h)
					}
					held = held[:0]
				}
			}
		}(g)
	}
	wg.Wait()
}
