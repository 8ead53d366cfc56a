// Package freelist recycles the simulation's arenas and drop policies
// between runs. Unlike a sync.Pool, a List is never emptied by the garbage
// collector, so the run after a GC cycle reuses grown backing arrays exactly
// like the run before it, and an allocation pin on a warm run holds however
// often the collector runs. A List holds at most as many items as were ever
// in use at once: one per concurrent run.
package freelist

import "sync"

// List is a free list of *T. The zero value is empty and ready to use; it
// is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get removes and returns an item from the list, or returns fresh() if the
// list is empty.
func (l *List[T]) Get(fresh func() *T) *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return fresh()
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// Put adds x to the list. The caller must not use x afterwards, and must
// not put the same item twice.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
