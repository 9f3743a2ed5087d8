// Package queue provides the bounded inter-stage queues that pipeline
// FFS-VA's filters (paper §3.1.2) and carry its global feedback-queue
// mechanism (§4.3.1): every queue has a depth threshold, and a producer
// blocked on a full queue is precisely the paper's "the SNM thread
// automatically slows down or even gets blocked" behaviour. Queues block
// on the virtual clock's condition variables; its processes never run at
// the same time, so a queue needs no lock.
package queue

import (
	"fmt"
	"time"

	"ffsva/internal/fifo"
	"ffsva/internal/vclock"
)

// Stats is a uniform snapshot of queue accounting and current state, the
// shape every queue exposes to the pipeline's observability layer.
type Stats struct {
	Puts     int64
	Gets     int64
	MaxDepth int
	// BlockedPuts counts Put calls that had to wait for space — the
	// feedback signal propagating upstream.
	BlockedPuts int64
	// ClosedPuts counts Put/TryPut calls rejected because the queue was
	// closed: every such item was discarded by the queue and must be
	// accounted for by the caller.
	ClosedPuts int64
	// Depth, Cap and Closed describe the queue at snapshot time.
	Depth  int
	Cap    int
	Closed bool
}

// Hooks observes a queue's item movement with clock timestamps; the
// tracing layer turns the put→pop interval into queue-wait spans and
// blocked puts into feedback-throttle instants. Hooks run inside the
// queue operation, so for a given item OnPut strictly precedes OnPop and
// the pair brackets the item's residency. Hooks must be fast and must not
// touch the queue.
type Hooks[T any] struct {
	// OnPut fires after an item is appended (Put or TryPut).
	OnPut func(x T, now time.Duration)
	// OnPop fires as an item leaves (Get/TryGet/GetUpTo/GetExact).
	OnPop func(x T, now time.Duration)
	// OnBlocked fires once per Put that finds the queue at its depth
	// threshold — the paper's feedback signal engaging.
	OnBlocked func(now time.Duration)
}

// Queue is a bounded FIFO of items with clock-integrated blocking.
type Queue[T any] struct {
	name string
	cap  int
	clk  *vclock.VirtualClock

	avail *vclock.Cond // signaled when items are added or queue closes
	space *vclock.Cond // signaled when items are removed or queue closes

	// items keeps its backing array: pops free slots at the front, and
	// a Put slides the queued items down over them before growing it.
	items  fifo.Buffer[T]
	closed bool
	stats  Stats
	hooks  Hooks[T]
}

// New creates a queue holding at most capacity items. The capacity is the
// paper's queue-depth threshold: producers block at it.
func New[T any](clk *vclock.VirtualClock, name string, capacity int) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: %s: non-positive capacity", name))
	}
	return &Queue[T]{name: name, cap: capacity, clk: clk, avail: clk.NewCond(), space: clk.NewCond()}
}

// SetHooks installs (or clears) the queue's observation hooks. Install
// before producers start; the zero Hooks value restores the unobserved
// fast path (three nil checks per operation).
func (q *Queue[T]) SetHooks(h Hooks[T]) { q.hooks = h }

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the depth threshold.
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the current depth.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Stats returns accumulated accounting plus the queue's current depth,
// capacity and closed state.
func (q *Queue[T]) Stats() Stats {
	s := q.stats
	s.Depth = q.items.Len()
	s.Cap = q.cap
	s.Closed = q.closed
	return s
}

// Put appends x, blocking while the queue is full. It returns false when
// the queue was closed (item discarded).
func (q *Queue[T]) Put(x T) bool {
	blocked := false
	for q.items.Len() >= q.cap && !q.closed {
		if !blocked && q.hooks.OnBlocked != nil {
			q.hooks.OnBlocked(q.clk.Now())
		}
		blocked = true
		q.space.Wait()
	}
	if q.closed {
		q.stats.ClosedPuts++
		return false
	}
	if blocked {
		q.stats.BlockedPuts++
	}
	q.items.Push(x)
	q.stats.Puts++
	if q.items.Len() > q.stats.MaxDepth {
		q.stats.MaxDepth = q.items.Len()
	}
	if q.hooks.OnPut != nil {
		q.hooks.OnPut(x, q.clk.Now())
	}
	q.avail.Signal()
	return true
}

// TryPut appends x only if space is available, never blocking. It returns
// false when full or closed.
func (q *Queue[T]) TryPut(x T) bool {
	if q.closed {
		q.stats.ClosedPuts++
		return false
	}
	if q.items.Len() >= q.cap {
		return false
	}
	q.items.Push(x)
	q.stats.Puts++
	if q.items.Len() > q.stats.MaxDepth {
		q.stats.MaxDepth = q.items.Len()
	}
	if q.hooks.OnPut != nil {
		q.hooks.OnPut(x, q.clk.Now())
	}
	q.avail.Signal()
	return true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false once the queue is closed and drained.
func (q *Queue[T]) Get() (x T, ok bool) {
	for q.items.Len() == 0 && !q.closed {
		q.avail.Wait()
	}
	if q.items.Len() == 0 {
		return x, false
	}
	return q.pop(), true
}

// TryGet removes the oldest item without blocking; ok is false when
// empty.
func (q *Queue[T]) TryGet() (x T, ok bool) {
	if q.items.Len() == 0 {
		return x, false
	}
	return q.pop(), true
}

// GetUpTo removes up to n items, blocking until at least one is available
// or the queue is closed and drained. This is the dynamic-batch drain
// (paper §4.3.2): take what is there, never wait for a full batch. The
// items are appended to buf[:0], which is returned, so a caller that
// passes back the previous batch's slice allocates nothing once it has
// grown to the batch size.
func (q *Queue[T]) GetUpTo(buf []T, n int) []T {
	buf = buf[:0]
	if n <= 0 {
		return buf
	}
	for q.items.Len() == 0 && !q.closed {
		q.avail.Wait()
	}
	return q.popInto(buf, n)
}

// GetExact removes exactly n items, blocking until n are available; if
// the queue closes first it returns whatever remains. This is the
// static-batch drain: wait for a full batch. Like GetUpTo, it appends to
// buf[:0] and returns it.
func (q *Queue[T]) GetExact(buf []T, n int) []T {
	buf = buf[:0]
	if n <= 0 {
		return buf
	}
	// A batch larger than the depth threshold can never fill (producers
	// block at the threshold — the paper calls this out in §4.3.2), so
	// clamp instead of deadlocking.
	if n > q.cap {
		n = q.cap
	}
	for q.items.Len() < n && !q.closed {
		q.avail.Wait()
	}
	return q.popInto(buf, n)
}

// popInto appends up to n items, oldest first, to buf.
func (q *Queue[T]) popInto(buf []T, n int) []T {
	for n = min(n, q.items.Len()); n > 0; n-- {
		buf = append(buf, q.pop())
	}
	return buf
}

// pop removes the head; callers guarantee non-empty.
func (q *Queue[T]) pop() T {
	x := q.items.Pop()
	q.stats.Gets++
	if q.hooks.OnPop != nil {
		q.hooks.OnPop(x, q.clk.Now())
	}
	q.space.Signal()
	return x
}

// Close marks the queue closed: pending and future Puts fail, consumers
// drain the remainder and then receive ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.avail.Broadcast()
	q.space.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Drained reports whether the queue is closed and empty.
func (q *Queue[T]) Drained() bool { return q.closed && q.items.Len() == 0 }
