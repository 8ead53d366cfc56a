package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListHandsEachItemToOneHolder runs Get/Put from several goroutines:
// no item may be held twice at once, and the list never holds more items
// than were in use together.
func TestListHandsEachItemToOneHolder(t *testing.T) {
	type item struct{ holders int }
	var (
		l       List[item]
		mu      sync.Mutex
		created int
		wg      sync.WaitGroup
	)
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get(func() *item {
					mu.Lock()
					created++
					mu.Unlock()
					return new(item)
				})
				mu.Lock()
				x.holders++
				if x.holders != 1 {
					t.Errorf("item held by %d goroutines at once", x.holders)
				}
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				x.holders--
				mu.Unlock()
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if created > workers || len(l.free) != created {
		t.Errorf("created %d items for %d workers, list holds %d", created, workers, len(l.free))
	}
}

// TestListSurvivesGC checks what a sync.Pool does not promise: an item put
// back is still there after garbage collections.
func TestListSurvivesGC(t *testing.T) {
	var l List[int]
	x := new(int)
	l.Put(x)
	runtime.GC()
	runtime.GC()
	if got := l.Get(func() *int { return new(int) }); got != x {
		t.Error("the item put back was lost across GC cycles")
	}
}
