package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's public functions. Spans of one operation
// (one adaptation, one frame) share Trace; Parent is the span that was
// open on the operation's goroutine when this one started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the operation's root
	Trace  int    `json:"trace"`
}

// keepTraces bounds the trace file: every operation is aggregated, the
// spans of the first keepTraces are also written out.
const keepTraces = 200

// tracer collects the spans of one operation at a time. begin/end are for
// the goroutine that runs the operation (calls nest, so a stack gives the
// parent); async is for work other goroutines do on its behalf. All
// methods are no-ops on a nil tracer, so shims need no tracing switch.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int
	trace  int
	cur    []span
	stack  []int // indexes into cur of the open begin() spans
	kept   []span

	ops       int
	exclusive map[string]int64 // ns per span name, partitioning each root
	inclusive map[string]int64 // ns per span name, overlaps counted twice
	calls     map[string]int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		exclusive: make(map[string]int64),
		inclusive: make(map[string]int64),
		calls:     make(map[string]int64),
	}
}

// begin opens a span on the operation's goroutine and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		t.trace++
		t.cur = t.cur[:0]
	}
	t.nextID++
	t.cur = append(t.cur, span{Name: name, Start: now, ID: t.nextID, Parent: t.parentLocked(), Trace: t.trace})
	t.stack = append(t.stack, len(t.cur)-1)
	return len(t.cur) - 1
}

// end closes the span begin returned; closing the root aggregates the
// whole operation.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur[h].End = now
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.aggregateLocked()
	}
}

// async records a finished span from another goroutine. Outside an
// operation (warm-up, post-actions after the root closed) it is dropped.
func (t *tracer) async(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return
	}
	t.nextID++
	t.cur = append(t.cur, span{
		Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		ID: t.nextID, Parent: t.parentLocked(), Trace: t.trace,
	})
}

// reset forgets the operations aggregated so far (the warm-up's).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops, t.kept = 0, nil
	clear(t.exclusive)
	clear(t.inclusive)
	clear(t.calls)
}

// operation records a whole finished operation at once — its root and
// the root's children — from timestamps taken elsewhere. No begin() may be
// open.
func (t *tracer) operation(names []string, starts, ends []time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	t.cur = t.cur[:0]
	root := t.nextID + 1
	for i, name := range names {
		t.nextID++
		parent := root
		if i == 0 {
			parent = 0
		}
		t.cur = append(t.cur, span{
			Name: name, Start: int64(starts[i].Sub(t.epoch)), End: int64(ends[i].Sub(t.epoch)),
			ID: t.nextID, Parent: parent, Trace: t.trace,
		})
	}
	t.aggregateLocked()
}

func (t *tracer) parentLocked() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.cur[t.stack[len(t.stack)-1]].ID
}

func (t *tracer) aggregateLocked() {
	t.ops++
	for name, ns := range attribute(t.cur) {
		t.exclusive[name] += ns
	}
	for _, s := range t.cur {
		t.inclusive[s.Name] += s.End - s.Start
		t.calls[s.Name]++
	}
	if t.ops <= keepTraces {
		t.kept = append(t.kept, t.cur...)
	}
}

// perOp returns the mean microseconds per operation attributed to the
// named spans exclusively (every instant of the root counted once).
func (t *tracer) perOp(names ...string) float64 {
	return t.meanOf(t.exclusive, names) / 1e3
}

// perOpInclusive is perOp over the spans' full durations.
func (t *tracer) perOpInclusive(names ...string) float64 {
	return t.meanOf(t.inclusive, names) / 1e3
}

// perCall returns the mean duration in microseconds of one named span.
func (t *tracer) perCall(names ...string) float64 {
	calls := t.meanOf(t.calls, names)
	if calls == 0 {
		return 0
	}
	return t.meanOf(t.inclusive, names) / 1e3 / calls
}

func (t *tracer) meanOf(m map[string]int64, names []string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return 0
	}
	var sum int64
	for _, n := range names {
		sum += m[n]
	}
	return float64(sum) / float64(t.ops)
}

// write stores the kept spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	body, err := json.Marshal(t.kept)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// attribute splits the first span's interval among all the spans: each
// instant goes to the span that started last among those open at that
// instant, so a span's share is its duration minus whatever its children
// (nested or concurrent) cover, and the shares sum to the root exactly.
func attribute(spans []span) map[string]int64 {
	out := make(map[string]int64)
	if len(spans) == 0 {
		return out
	}
	root := spans[0]
	clip := func(v int64) int64 { return min(max(v, root.Start), root.End) }
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, clip(s.Start), clip(s.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo == hi {
			continue
		}
		owner := 0
		for j, s := range spans {
			if s.Start <= lo && s.End >= hi && s.Start >= spans[owner].Start {
				owner = j
			}
		}
		out[spans[owner].Name] += hi - lo
	}
	return out
}
