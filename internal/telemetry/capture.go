package telemetry

import (
	"sort"
)

// Capture support: the stable snapshot-for-capture API behind
// internal/ftdc. Where Snapshot builds a human/JSON-shaped view,
// CaptureSample flattens the registry into parallel (name, int64) columns
// with a deterministic order, which is what a delta-encoding capture
// writer needs: the same metric lands in the same column every sample, so
// consecutive rows differ by small numbers.
//
// Metric names are namespaced by kind — "counter.", "gauge.", "hist." —
// so a counter and a gauge sharing a base name cannot collide, and
// histogram summaries expand into fixed sub-columns. All methods are
// nil-safe.

// histCaptureCols are the per-histogram sub-columns, in column order.
var histCaptureCols = []string{"count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"}

// AppendCaptureSample appends the registry's current metric columns to
// names/values (usually the previous sample's slices, truncated by the
// caller via [:0], so a steady-state capture loop allocates only when new
// metrics appear) and returns the extended slices, sorted by name. On a
// nil registry the slices are returned unchanged.
func (r *Registry) AppendCaptureSample(names []string, values []int64) ([]string, []int64) {
	if r == nil {
		return names, values
	}
	base := len(names)
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.RUnlock()

	for k, v := range counters {
		names = append(names, "counter."+k)
		values = append(values, v.Value())
	}
	for k, v := range gauges {
		names = append(names, "gauge."+k)
		values = append(values, v.Value())
	}
	for k, v := range hists {
		s := v.Summary()
		cols := [...]int64{s.Count, int64(s.Sum), int64(s.Min), int64(s.Max), int64(s.P50), int64(s.P95), int64(s.P99)}
		for i, sub := range histCaptureCols {
			names = append(names, "hist."+k+"."+sub)
			values = append(values, cols[i])
		}
	}
	if fr := r.Flight(); fr.Enabled() {
		names = append(names, "flight.depth")
		values = append(values, int64(fr.Depth()))
	}

	// Sort the appended region by name, keeping the slices parallel.
	region := capturePairs{names: names[base:], values: values[base:]}
	sort.Sort(region)
	return names, values
}

// CaptureSample returns the registry's metric columns as freshly
// allocated sorted parallel slices. Empty on a nil registry.
func (r *Registry) CaptureSample() ([]string, []int64) {
	return r.AppendCaptureSample(nil, nil)
}

type capturePairs struct {
	names  []string
	values []int64
}

func (p capturePairs) Len() int           { return len(p.names) }
func (p capturePairs) Less(i, j int) bool { return p.names[i] < p.names[j] }
func (p capturePairs) Swap(i, j int) {
	p.names[i], p.names[j] = p.names[j], p.names[i]
	p.values[i], p.values[j] = p.values[j], p.values[i]
}

// SetCaptureFlush arms the capture-finalization hook: the function is
// invoked (with the dump reason) whenever the flight recorder auto-dumps
// — rollback, failure, panic, shutdown — so an attached FTDC capturer can
// take a final sample and fsync its open chunk at exactly the moments a
// post-mortem will want the freshest metrics. Nil disarms.
func (r *Registry) SetCaptureFlush(f func(reason string)) {
	if r == nil {
		return
	}
	if f == nil {
		r.captureFlush.Store(nil)
		return
	}
	r.captureFlush.Store(&f)
}

// captureFlushNow invokes the armed capture-finalization hook, if any.
func (r *Registry) captureFlushNow(reason string) {
	if r == nil {
		return
	}
	if p := r.captureFlush.Load(); p != nil {
		(*p)(reason)
	}
}
