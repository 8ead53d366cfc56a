package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Start and End are nanoseconds since the tracer was made;
// Parent is the index of the span that caused this one (-1 for a root) and
// Wave ties the spans of one wave or repetition together (-1 outside any).
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Wave       int32
}

// maxSpans bounds the pre-sized span table. The largest traced run
// (direct_churn) records one Handle span per session: about 1000 sessions
// times 30 traced waves.
const maxSpans = 1 << 17

// tracer records spans into a pre-sized table. A nil tracer, and one that
// is switched off, records nothing; begin and end are safe from any
// goroutine.
type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	on      atomic.Bool
	dropped atomic.Int64
	wave    atomic.Int32
	snaps   []snapshot
}

// snapshot is one layer's exported registry, read at the end of a wave.
type snapshot struct {
	Wave    int32           `json:"wave"`
	Layer   string          `json:"layer"`
	Metrics json.RawMessage `json:"metrics"`
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, maxSpans)}
	t.wave.Store(-1)
	t.on.Store(true)
	return t
}

// scope sets the wave that later spans belong to and whether they are
// recorded at all.
func (t *tracer) scope(wave int, on bool) {
	if t != nil {
		t.wave.Store(int32(wave))
		t.on.Store(on)
	}
}

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: int64(time.Since(t.base)), Parent: parent, Wave: t.wave.Load()}
	return int32(i)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.base))
	}
}

// recorded returns the closed spans.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durations returns the length in nanoseconds of every span of that name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (a thousand
// Handle calls run inside one wave), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write dumps the spans, their self times summed by name, and the registry
// snapshots to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, header map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	spans := t.recorded()
	self := selfTimes(spans)
	selfByName := map[string]int64{}
	for i, s := range spans {
		selfByName[s.Name] += self[i]
	}
	head, err := json.Marshal(header)
	if err != nil {
		return "", err
	}
	selfJSON, err := json.Marshal(selfByName)
	if err != nil {
		return "", err
	}
	snaps, err := json.Marshal(t.snaps)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "{\"header\":%s,\n\"dropped_spans\":%d,\n\"self_ns_by_name\":%s,\n\"snapshots\":%s,\n\"spans\":[", head, t.dropped.Load(), selfJSON, snaps)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"wave\":%d,\"self\":%d}",
			i, s.Name, s.Start, s.End, s.Parent, s.Wave, self[i])
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
