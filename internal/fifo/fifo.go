// Package fifo provides the first-in, first-out buffer under the virtual
// clock's ready and waiter queues and the pipeline's bounded queues: a
// slice that keeps its backing array, so a queue in steady state
// allocates nothing.
package fifo

// Buffer is a FIFO of T. A Pop advances the head over the slice; a Push
// that finds the backing array full slides the queued items down over
// the slots freed at the front — when that frees at least half of it, so
// each item is moved at most once per trip through the array on average —
// before letting append grow it. The price is memory: append only grows
// an array more than half of which is queued, so the backing array stays
// within four times the largest length ever queued (plus append's
// rounding). The zero Buffer is empty and ready to use.
type Buffer[T any] struct {
	buf  []T // buf[head:] are queued, oldest first
	head int
}

// Len returns the number of queued items.
func (b *Buffer[T]) Len() int { return len(b.buf) - b.head }

// Push appends x at the back.
func (b *Buffer[T]) Push(x T) {
	if len(b.buf) == cap(b.buf) && b.head > 0 && 2*b.head >= len(b.buf) {
		n := copy(b.buf, b.buf[b.head:])
		clear(b.buf[n:])
		b.buf, b.head = b.buf[:n], 0
	}
	b.buf = append(b.buf, x)
}

// Pop removes and returns the front item; the buffer must not be empty.
// The vacated slot is zeroed, so the buffer keeps no reference to x.
func (b *Buffer[T]) Pop() T {
	x := b.buf[b.head]
	var zero T
	b.buf[b.head] = zero
	b.head++
	if b.head == len(b.buf) {
		b.buf, b.head = b.buf[:0], 0
	}
	return x
}
