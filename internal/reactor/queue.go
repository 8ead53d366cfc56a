package reactor

import "sync"

// Queue hands values from any number of producer goroutines to the one
// goroutine that consumes them: Push and Close from anywhere, Drain from
// the consumer only. The zero value is an open, empty queue.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	closed bool
	// last is the batch the previous Drain returned, recycled as the next
	// items buffer; only the consumer touches it.
	last []T
}

// Push appends v; it reports false, and drops v, once the queue is closed.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, v)
	return true
}

// Drain returns everything pushed since the previous Drain, in order. The
// batch is valid until the next Drain, which swaps the two buffers instead
// of allocating.
//
//smoothvet:noalloc
func (q *Queue[T]) Drain() []T {
	clear(q.last) // drop the consumed batch's references
	q.last = q.last[:0]
	q.mu.Lock()
	batch := q.items
	if len(batch) > 0 {
		q.items, q.last = q.last, batch
	}
	q.mu.Unlock()
	return batch
}

// Close refuses every later Push and returns what no Drain has taken, so
// the consumer can end those exactly once.
func (q *Queue[T]) Close() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	rest := q.items
	q.items = nil
	return rest
}
