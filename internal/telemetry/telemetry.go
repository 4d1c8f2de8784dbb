// Package telemetry is the observability layer of the safe-adaptation
// stack: counters, gauges, latency histograms with quantile summaries,
// and structured span/event tracing with monotonic timestamps.
//
// The paper's evaluation (Sec. 5) is a set of *measurements* — planning
// cost, per-step blocking windows, packets in flight during a filter
// swap — and this package is how the reproduction measures itself. A
// single *Registry is threaded through the planner, manager, agents,
// transports and MetaSockets; it can be exported as JSON, served over
// HTTP (see Handler), or rendered as a span tree (see RenderTree).
//
// Every method in the package is nil-safe: calling any method on a nil
// *Registry, *Counter, *Gauge, *Histogram or *Span is a no-op (or
// returns a zero value). Instrumented hot paths therefore pay only a
// nil check when no registry is configured, which keeps the
// uninstrumented fast path free — see BenchmarkNilRegistry and the
// root-level BenchmarkTelemetryOverhead.
//
// The package is stdlib-only and safe for concurrent use.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a namespace of metrics and a sink for spans and events.
// The zero value is not usable; create with NewRegistry. A nil *Registry
// is a valid no-op sink.
type Registry struct {
	epoch time.Time // monotonic anchor for span/event timestamps

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// traceMu is separate from mu so span/event pushes (hot, every
	// protocol message) never contend with metric-name lookups.
	traceMu sync.Mutex
	spans   ring[SpanRecord]
	events  ring[EventRecord]

	nextSpanID atomic.Uint64

	// Causal context (see causal.go): Lamport clock, node label, and the
	// adaptation trace in progress. All lock-free.
	lamport     atomic.Uint64
	node        atomic.Pointer[string]
	activeTrace atomic.Pointer[string]

	// flight is the optional black-box recorder (see flightrec.go).
	flight atomic.Pointer[FlightRecorder]

	// captureFlush is the optional FTDC finalization hook (see capture.go):
	// invoked on flight-recorder auto-dumps so an always-on capture can
	// sync its open chunk at failure points.
	captureFlush atomic.Pointer[func(string)]
}

// Capacity bounds for the span and event ring buffers.
const (
	maxSpans  = 4096
	maxEvents = 4096
)

// NewRegistry returns an empty registry. Its epoch — the zero point of
// all span and event offsets — is the moment of creation.
func NewRegistry() *Registry {
	return &Registry{
		epoch:      time.Now(),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		spans:      newRing[SpanRecord](maxSpans),
		events:     newRing[EventRecord](maxEvents),
	}
}

// since returns the monotonic offset of t from the registry epoch.
func (r *Registry) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// Counter returns (creating if needed) the named counter. Returns nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing count. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates duration observations and summarizes them with
// exact count/sum/min/max and quantiles read from a mergeable log-linear
// sketch (see digest.go): every observation ever made counts, memory is
// bounded by the bucket geometry, and a quantile never undershoots the
// exact nearest-rank sample and overshoots it by at most 1/16th
// (TestSketchQuantileErrorBound). Nil-safe.
type Histogram struct {
	mu  sync.Mutex
	min time.Duration
	max time.Duration
	// sketch holds the exact count and sum along with the buckets; the
	// rollup plane folds it with its peers on other nodes.
	sketch Sketch
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sketch.n == 0 || d < h.min {
		h.min = d
	}
	if h.sketch.n == 0 || d > h.max {
		h.max = d
	}
	h.sketch.Observe(d)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sketch.n
}

// Quantile returns the q-quantile (q in [0,1]) of every observation made,
// read from the sketch. Zero when empty or nil.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked reads the sketch, whose answer is the upper edge of a
// bucket, and caps it at the exact maximum the histogram also holds.
func (h *Histogram) quantileLocked(q float64) time.Duration {
	return min(h.sketch.Quantile(q), h.max)
}

// Sketch returns a mergeable copy of the histogram's log-linear bucket
// sketch (see digest.go). Nil on a nil histogram.
func (h *Histogram) Sketch() *Sketch {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sketch.Clone()
}

// Summary returns the histogram's summary statistics.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{
		Count: h.sketch.n,
		Sum:   time.Duration(h.sketch.sum),
		Min:   h.min,
		Max:   h.max,
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	return s
}

// HistogramSummary is a point-in-time digest of one histogram.
type HistogramSummary struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sumNanos"`
	Min   time.Duration `json:"minNanos"`
	Max   time.Duration `json:"maxNanos"`
	Mean  time.Duration `json:"meanNanos"`
	P50   time.Duration `json:"p50Nanos"`
	P95   time.Duration `json:"p95Nanos"`
	P99   time.Duration `json:"p99Nanos"`
}

// Snapshot is a point-in-time JSON-marshalable view of every metric in
// the registry.
type Snapshot struct {
	// Uptime is the time elapsed since the registry was created.
	Uptime time.Duration `json:"uptimeNanos"`
	// Counters, Gauges and Histograms are keyed by metric name.
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]int64            `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Snapshot captures every counter, gauge and histogram. On a nil
// registry it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSummary{},
	}
	if r == nil {
		return s
	}
	s.Uptime = time.Since(r.epoch)
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
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Summary()
	}
	return s
}

// ring is a bounded FIFO of the most recent items.
type ring[T any] struct {
	buf   []T
	start int
	n     int
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

func (q *ring[T]) push(item T) {
	if len(q.buf) == 0 {
		return
	}
	if q.n < len(q.buf) {
		q.buf[(q.start+q.n)%len(q.buf)] = item
		q.n++
		return
	}
	q.buf[q.start] = item
	q.start = (q.start + 1) % len(q.buf)
}

func (q *ring[T]) snapshot() []T {
	out := make([]T, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[(q.start+i)%len(q.buf)]
	}
	return out
}
