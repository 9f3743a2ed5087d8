package par

import (
	"runtime"
	"sync"
	"testing"
)

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
	// A Put counts whether or not its slice was filed.
	if gets, puts := pool.Stats(); gets != maxFree+8 || puts != maxFree+9 {
		t.Fatalf("Stats() = %d gets, %d puts, want %d, %d", gets, puts, maxFree+8, maxFree+9)
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
