package par

import "sync"

// SlicePool recycles slices of one element type, bucketed by exact
// length. FFS-VA's steady state allocates the same few shapes over and
// over — 50×50 SNM inputs, im2col column matrices, frame pixel planes —
// so exact-length buckets hit essentially always and the hot loops stop
// touching the heap.
//
// Each length has a LIFO free list and one mutex guards them all. The
// lists belong to the pool, not to the garbage collector: a slice stays
// filed until a Get of its length takes it, so how much a run allocates
// does not depend on when the collector happened to run (a sync.Pool
// is emptied by every cycle). A list holds at most maxFree slices; a
// Put that finds it full drops the slice for the collector. The limit
// is a count, so what a run allocates stays a function of its Get/Put
// sequence alone, and it bounds both what the pool retains and how much
// a cold process allocates beyond a warm one (maxFree slices per
// length) — a burst that holds a thousand slices of one length at once
// re-allocates its excess each time instead of pinning it for the
// life of the process. The mutex is uncontended where it matters:
// under the cooperative virtual clock one process computes at a time.
//
// Get returns a slice whose contents are arbitrary (whatever the
// previous user left); callers that need zeros must clear it or, better,
// overwrite every element. After Put the caller must drop every
// reference to the slice — the next Get of that length owns it. The
// zero SlicePool is ready to use.
type SlicePool[T any] struct {
	mu   sync.Mutex
	free map[int]*freeList[T]
}

// maxFree is how many slices one length's free list retains: more than
// the steady states this repo runs keep outstanding of one shape (four
// offline streams hold about a hundred frame planes at most: a frame
// has one only from its SDD stage to its verdict), so they allocate no
// buffer once warm, and few enough that what a burst leaves behind is a
// small share of what the next one allocates.
const maxFree = 128

// freeList is one length's stack of filed slices. It is held by pointer
// so a Get or Put costs one map lookup and no map store.
type freeList[T any] struct {
	slices [][]T
}

// Get returns a slice of exactly length n, recycled when possible.
func (p *SlicePool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	if l := p.free[n]; l != nil && len(l.slices) > 0 {
		last := len(l.slices) - 1
		s := l.slices[last]
		l.slices[last] = nil
		l.slices = l.slices[:last]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return make([]T, n)
}

// Put files s for reuse by a later Get of the same length, or drops it
// when that length's list is full. The caller must drop every reference
// to s.
func (p *SlicePool[T]) Put(s []T) {
	n := len(s)
	if n == 0 {
		return
	}
	p.mu.Lock()
	l := p.free[n]
	if l == nil {
		if p.free == nil {
			p.free = make(map[int]*freeList[T])
		}
		l = &freeList[T]{}
		p.free[n] = l
	}
	if len(l.slices) < maxFree {
		l.slices = append(l.slices, s)
	}
	p.mu.Unlock()
}
