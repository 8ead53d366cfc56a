// Package determscope seeds determinism violations; the analyzer's test
// adds this package to determinism.Scope so the map-range rule applies to
// unmarked functions too.
package determscope

import (
	"math/rand"
	"sort"
	"time"
)

// mapRanges is unmarked: only the map-range rule applies.
func mapRanges(m map[string]int) int {
	total := 0
	for k, v := range m { // want `map iteration order can reach output`
		total += len(k) * v
	}

	keys := make([]string, 0, len(m))
	for k := range m { // ok: collect-then-sort
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total += m[k]
	}

	for k := range m { // ok: in-place clear
		delete(m, k)
	}

	//smoothvet:ordered the body only counts entries; order cannot leak
	for range m { // ok: suppressed
		total++
	}
	return total
}

// collectNoSort gathers keys but never sorts them: still order-dependent.
func collectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order can reach output`
		keys = append(keys, k)
	}
	return keys
}

// step is a marked deterministic function: the strict rules apply.
//
//smoothvet:deterministic
func step(points []int) int {
	x := 0
	if time.Now().Unix() > 0 { // want `time\.Now reads the wall clock`
		x++
	}
	x += rand.Intn(6) // want `global math/rand\.Intn`

	rng := rand.New(rand.NewSource(1)) // ok: seeded generator
	x += rng.Intn(6)

	results := make([]int, len(points))
	ch := make(chan int)
	for i := range points {
		i := i
		go func() {
			results[i] = i // ok: indexed slot
			ch <- i        // want `channel send inside a spawned goroutine`
		}()
	}
	select { // want `select outcome depends on goroutine scheduling`
	case v := <-ch:
		x += v
	default:
	}
	return x + results[0]
}

// wallClockHelpers exercises the remaining time checks.
//
//smoothvet:deterministic
func wallClockHelpers() time.Duration {
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC) // ok: pure construction
	return time.Since(t0)                             // want `time\.Since reads the wall clock`
}

// root is deterministic; the strict rules extend through the call graph to
// the unmarked helpers it calls, and the diagnostic names the root.
//
//smoothvet:deterministic
func root(points []int) int {
	return jitter() + len(points)
}

// jitter is unmarked but reachable from root, so the strict checks apply.
func jitter() int {
	x := rand.Intn(3)                 // want `global math/rand\.Intn in a //smoothvet:deterministic function \(reachable from root\)`
	if time.Now().UnixNano()&1 == 0 { // want `time\.Now reads the wall clock on a //smoothvet:deterministic path \(reachable from root\)`
		x++
	}
	return x
}

// offPath is not reachable from any deterministic root: only the map-range
// rule (this package is in Scope) applies, so the clock read is accepted.
func offPath() int64 {
	return time.Now().Unix() // ok: not on a deterministic path
}
