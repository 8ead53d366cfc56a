package drop_test

import (
	"fmt"

	"repro/internal/drop"
	"repro/internal/stream"
)

// Example shows the greedy policy's victim order: lowest value per byte
// goes first, regardless of size or arrival order.
func Example() {
	p := drop.Greedy()
	p.Add(stream.Run{First: 0, Count: 1, Size: 120, Weight: 1440}) // I frame, 12/byte
	p.Add(stream.Run{First: 1, Count: 1, Size: 23, Weight: 23})    // B frame, 1/byte
	p.Add(stream.Run{First: 2, Count: 1, Size: 55, Weight: 440})   // P frame, 8/byte

	for {
		victim, ok := p.Victim(1)
		if !ok {
			break
		}
		fmt.Printf("drop slice %d (%.0f per byte)\n", victim.First, victim.ByteValue())
	}
	// Output:
	// drop slice 1 (1 per byte)
	// drop slice 2 (8 per byte)
	// drop slice 0 (12 per byte)
}

// ExamplePolicy_noPreemption shows how the simulator marks a slice
// undroppable once its transmission starts.
func ExamplePolicy_noPreemption() {
	p := drop.TailDrop()
	p.Add(stream.Run{First: 0, Count: 2, Size: 4, Weight: 4})

	p.Remove(1, 2) // slice 1 commenced transmission: no longer droppable
	victim, _ := p.Victim(1)
	fmt.Printf("victim: slice %d\n", victim.First)
	_, ok := p.Victim(1)
	fmt.Printf("more victims: %v\n", ok)
	// Output:
	// victim: slice 0
	// more victims: false
}
