// Package fifo provides a first-in, first-out queue that reuses its
// backing array. The idiom it replaces, popping with q = q[1:], strands
// the popped prefix: the slice's capacity shrinks from the front, so a
// steady push/pop rhythm re-allocates the array over and over. Here a
// pop advances a head index instead, and a push that finds the array
// full slides the live entries back to the front when at least half of
// it is dead, so a queue that stays short never allocates again.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued entries, oldest first. The slice aliases the
// queue and is valid until the next Push, Pop, Remove or Reset.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push appends x at the tail.
func (q *Queue[T]) Push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, x)
}

// Pop removes and returns the head entry. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	x := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return x
}

// Remove deletes the entry at position i (0 is the head), keeping the
// order of the rest.
func (q *Queue[T]) Remove(i int) {
	var zero T
	j := q.head + i
	copy(q.buf[j:], q.buf[j+1:])
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// Drop removes the n oldest entries.
func (q *Queue[T]) Drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// Reset empties the queue, keeping its backing array.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}
