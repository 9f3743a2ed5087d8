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
//
// The pool counts its Gets and Puts (Stats), so a test can assert that
// every buffer a run borrowed went back.
type SlicePool[T any] struct {
	mu         sync.Mutex
	free       map[int]*freeList[T]
	gets, puts int64
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
	p.gets++
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
	p.puts++
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

// Stats returns how many slices the pool has handed out and taken back
// since it was made; a Put counts whether or not its slice was filed.
// Calls with a zero length are no-ops and count neither way. The counts
// are cumulative, so callers compare deltas around the region under
// test.
func (p *SlicePool[T]) Stats() (gets, puts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.puts
}

// FreeList recycles values of one type by pointer — the headers and
// records a frame's journey would otherwise allocate per frame (frame
// headers, capture records, image and tensor headers). It is a LIFO
// list that belongs to the pool, not to the garbage collector, with
// every Get and Put counted, so what a run allocates is a function of
// its Get/Put sequence alone.
//
// Unlike SlicePool it files every value it is given: a list never holds
// more than the most values that were out at once, and a value is a
// small header, not a plane. A cap would cost a run whose peak passes
// it (a 136-stream online ladder holds about 900 frame headers and
// capture records at once) an allocation for every value beyond it, on
// every pass.
//
// Get returns a filed value as its last user left it, or a new zero
// one; callers reset what they use. After Put the caller must drop
// every reference to the value. The zero FreeList is ready to use.
type FreeList[T any] struct {
	mu         sync.Mutex
	free       []*T
	gets, puts int64
}

// Get returns a recycled value, or a new zero one when none is filed.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	l.gets++
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

// Put files x for a later Get. The caller must drop every reference to
// x.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.puts++
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Stats returns how many values the list has handed out and taken back
// since it was made. Callers compare deltas around the region under
// test.
func (l *FreeList[T]) Stats() (gets, puts int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gets, l.puts
}
