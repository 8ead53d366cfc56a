package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// FuzzClientMatchesReference drives core.Client and the seed simulator's
// per-slice refClient (goldenequiv_test.go) with the same deliveries and
// requires the same played and dropped IDs and the same occupancy after
// every step. A seeded sender sends the stream in ID order at 1-12 bytes a
// step, skips about one slice in eight as a server drop would, and cuts
// its bytes into batches at random points; each batch reaches the clients
// up to jitter steps late, so batches arrive out of order and after their
// slices' deadlines, and a buffer of a few bytes forces overflow.
func FuzzClientMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, buffer, delay, linkDelay, jitter int) {
		buffer = 1 + int(uint(buffer)%96)
		delay = 1 + int(uint(delay)%6)
		linkDelay = int(uint(linkDelay) % 3)
		jitter = int(uint(jitter) % 4)
		rng := rand.New(rand.NewSource(seed))
		st := mixedRunStream(seed, 8+rng.Intn(24))
		arrive := deliveries(rng, st, linkDelay, jitter)

		cl := core.NewClient(buffer, delay, linkDelay, st)
		ref := newRefClient(buffer, delay, linkDelay, st)
		for step := 0; step < len(arrive) || step <= st.Horizon()+linkDelay+delay; step++ {
			var batches []core.Batch
			if step < len(arrive) {
				batches = arrive[step]
			}
			got := cl.Step(step, batches)
			want := ref.Step(step, perSlice(batches))
			if g, w := spanIDs(got.Played), sortedIDs(want.Played); !slices.Equal(g, w) {
				t.Fatalf("step %d: played %v, reference %v", step, g, w)
			}
			if g, w := spanIDs(got.Dropped), sortedIDs(want.Dropped); !slices.Equal(g, w) {
				t.Fatalf("step %d: dropped %v, reference %v", step, g, w)
			}
			if got.Occupancy != want.Occupancy {
				t.Fatalf("step %d: occupancy %d, reference %d", step, got.Occupancy, want.Occupancy)
			}
		}
	})
}

// deliveries sends st's bytes in ID order and returns, per step, the
// batches that reach the client then: linkDelay plus up to jitter steps
// after they were sent.
func deliveries(rng *rand.Rand, st *stream.Stream, linkDelay, jitter int) [][]core.Batch {
	var arrive [][]core.Batch
	var queue []stream.Run
	off := 0 // bytes of queue[0]'s first slice already sent
	for step := 0; step <= st.Horizon() || len(queue) > 0; step++ {
		queue = append(queue, st.RunsAt(step)...)
		for budget := 1 + rng.Intn(12); budget > 0 && len(queue) > 0; {
			r := &queue[0]
			n := r.Size // a skipped slice, like a server drop
			if off > 0 || rng.Intn(8) > 0 {
				n = min(budget, r.Bytes()-off, 1+rng.Intn(3*r.Size))
				at := step + linkDelay + rng.Intn(jitter+1)
				for len(arrive) <= at {
					arrive = append(arrive, nil)
				}
				arrive[at] = append(arrive[at], core.Batch{SliceID: r.First, Offset: off, Bytes: n, Size: r.Size})
				budget -= n
			}
			done := (off + n) / r.Size
			r.First, r.Count, off = r.First+done, r.Count-done, (off+n)%r.Size
			if r.Count == 0 {
				queue = queue[1:]
			}
		}
	}
	return arrive
}

// perSlice splits range batches into the one-slice batches refClient
// reads.
func perSlice(batches []core.Batch) []core.Batch {
	var out []core.Batch
	for _, b := range batches {
		id, off := b.SliceID, b.Offset
		for left := b.Bytes; left > 0; id, off = id+1, 0 {
			n := min(left, b.Size-off)
			out = append(out, core.Batch{SliceID: id, Bytes: n})
			left -= n
		}
	}
	return out
}

// spanIDs lists the IDs of the spans in increasing order.
func spanIDs(spans []core.Span) []int {
	var ids []int
	for _, s := range spans {
		for id := s.First; id < s.End; id++ {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// sortedIDs returns a sorted copy of ids.
func sortedIDs(ids []int) []int {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return ids
}
