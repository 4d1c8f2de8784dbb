package telemetry

import (
	"encoding/json"
	"math/bits"
	"sort"
	"time"
)

// Mergeable telemetry: the rollup-plane counterpart of Snapshot. Where a
// Snapshot is a human/JSON-shaped view of ONE node, a Digest is an
// algebraic object — counters, gauges and histogram *sketches* that can
// be added together — so a coordinator tree can fold a whole shard's
// telemetry into one upstream report without ever shipping raw samples.
// Merge is commutative and associative (see the property tests), which is
// what makes the fold order-independent: a deterministic scheduler may
// deliver shard reports in any interleaving and the folded result is the
// same.

// Sketch bucket geometry: values below 2^sketchSubBits land in exact
// linear buckets; above that, each power-of-two octave is split into
// 2^sketchSubBits linear sub-buckets, so a bucket's width is at most
// 1/16th of its lower bound. Quantiles read from the sketch therefore
// overshoot the exact nearest-rank sample by at most a factor of 1+1/16
// (see TestSketchQuantileErrorBound).
const (
	sketchSubBits  = 4
	sketchSubCount = 1 << sketchSubBits
	// sketchMaxBuckets is the densest possible index plus one: the top
	// bucket (index 959) covers the largest int64 values.
	sketchMaxBuckets = (62-sketchSubBits)*sketchSubCount + 2*sketchSubCount
)

// sketchIndex maps a non-negative value onto its dense bucket index.
// Negative values clamp to bucket 0.
func sketchIndex(v int64) int {
	if v < sketchSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - sketchSubBits
	return exp<<sketchSubBits + int(v>>uint(exp))
}

// sketchValue returns the largest value contained in the bucket — the
// conservative (never-undershooting) representative quantile readers use.
func sketchValue(idx int) int64 {
	if idx < sketchSubCount {
		return int64(idx)
	}
	exp := uint(idx>>sketchSubBits - 1)
	sub := int64(idx) - int64(exp)<<sketchSubBits
	return (sub+1)<<exp - 1
}

// Sketch is a mergeable histogram: fixed log-linear buckets over
// non-negative int64 values (nanoseconds, by convention). Merging two
// sketches is bucket-wise addition, so any grouping or ordering of merges
// yields the same result. The zero value is ready to use. A Sketch is NOT
// safe for concurrent use; a Histogram guards its embedded sketch with
// its own lock, and the rollup plane only touches sketches from single
// goroutines.
type Sketch struct {
	counts []int64 // dense, trimmed to the highest occupied bucket
	n      int64
	sum    int64
}

// Observe adds one duration observation.
func (s *Sketch) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.add(sketchIndex(int64(d)), 1, int64(d))
}

func (s *Sketch) add(idx int, n, sum int64) {
	for idx >= len(s.counts) {
		if cap(s.counts) > len(s.counts) {
			s.counts = s.counts[:cap(s.counts)]
			continue
		}
		grown := make([]int64, idx+1, 2*(idx+1))
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[idx] += n
	s.n += n
	s.sum += sum
}

// Count returns the number of folded observations (0 on nil).
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// Sum returns the sum of folded observations in nanoseconds (0 on nil).
func (s *Sketch) Sum() int64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Merge folds o into s (bucket-wise addition). Merging nil is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if s == nil || o == nil {
		return
	}
	for idx, c := range o.counts {
		if c != 0 {
			s.add(idx, c, 0)
		}
	}
	s.sum += o.sum
}

// Delta returns s minus prev — the observations that arrived since prev
// was cloned from the same sketch. Buckets never go negative: if prev is
// not actually an ancestor of s the excess is clamped, which degrades to
// over-reporting nothing.
func (s *Sketch) Delta(prev *Sketch) *Sketch {
	if s == nil {
		return nil
	}
	d := &Sketch{counts: make([]int64, len(s.counts))}
	for idx, c := range s.counts {
		if prev != nil && idx < len(prev.counts) {
			c -= prev.counts[idx]
		}
		if c < 0 {
			c = 0
		}
		d.counts[idx] = c
		d.n += c
	}
	d.sum = s.sum - prev.Sum()
	if d.sum < 0 {
		d.sum = 0
	}
	return d
}

// Clone returns an independent copy (nil in, nil out).
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := &Sketch{counts: make([]int64, len(s.counts)), n: s.n, sum: s.sum}
	copy(c.counts, s.counts)
	return c
}

// Quantile returns the nearest-rank q-quantile of the sketched
// distribution, using each bucket's conservative representative. Zero on
// an empty or nil sketch.
func (s *Sketch) Quantile(q float64) time.Duration {
	if s == nil || s.n == 0 {
		return 0
	}
	rank := int64(q * float64(s.n))
	if float64(rank) < q*float64(s.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	var cum int64
	for idx, c := range s.counts {
		cum += c
		if cum >= rank {
			return time.Duration(sketchValue(idx))
		}
	}
	return time.Duration(sketchValue(len(s.counts) - 1))
}

// sketchJSON is the compact wire shape: sparse [index, count] pairs in
// ascending index order, so equal sketches encode byte-identically.
type sketchJSON struct {
	N   int64      `json:"n"`
	Sum int64      `json:"sum"`
	B   [][2]int64 `json:"b,omitempty"`
}

// MarshalJSON encodes the sketch sparsely.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	doc := sketchJSON{}
	if s != nil {
		doc.N = s.n
		doc.Sum = s.sum
		for idx, c := range s.counts {
			if c != 0 {
				doc.B = append(doc.B, [2]int64{int64(idx), c})
			}
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the sparse shape. Out-of-range or negative
// entries are dropped rather than trusted.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	if s == nil {
		return nil
	}
	var doc sketchJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	*s = Sketch{sum: doc.Sum}
	for _, b := range doc.B {
		if b[0] < 0 || b[0] >= sketchMaxBuckets || b[1] <= 0 {
			continue
		}
		s.add(int(b[0]), b[1], 0)
	}
	s.n = 0
	for _, c := range s.counts {
		s.n += c
	}
	return nil
}

// Digest is a mergeable cross-section of one registry (or of many,
// after folding): counter values (deltas, when produced by an interval
// emitter), gauge values, and histogram sketches. Nodes counts how many
// per-node digests were folded in.
type Digest struct {
	Nodes    int                `json:"nodes,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]int64   `json:"gauges,omitempty"`
	Sketches map[string]*Sketch `json:"sketches,omitempty"`
}

// DigestSample captures the registry's cumulative state as a digest:
// counter totals, gauge values, and one sketch per histogram. Empty on a
// nil registry (Nodes 0 so merging it is a no-op).
func (r *Registry) DigestSample() Digest {
	d := Digest{}
	if r == nil {
		return d
	}
	d.Nodes = 1
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
	if len(counters) > 0 {
		d.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			d.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		d.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			d.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		d.Sketches = make(map[string]*Sketch, len(hists))
		for k, v := range hists {
			d.Sketches[k] = v.Sketch()
		}
	}
	return d
}

// Delta returns d minus prev: counters and sketches subtract (clamped at
// zero), gauges stay instantaneous, Nodes is d's. prev is typically the
// previous interval's DigestSample from the same registry.
func (d Digest) Delta(prev Digest) Digest {
	out := Digest{Nodes: d.Nodes}
	if len(d.Counters) > 0 {
		out.Counters = make(map[string]int64, len(d.Counters))
		for k, v := range d.Counters {
			v -= prev.Counters[k]
			if v < 0 {
				v = 0
			}
			out.Counters[k] = v
		}
	}
	if len(d.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(d.Gauges))
		for k, v := range d.Gauges {
			out.Gauges[k] = v
		}
	}
	if len(d.Sketches) > 0 {
		out.Sketches = make(map[string]*Sketch, len(d.Sketches))
		for k, v := range d.Sketches {
			out.Sketches[k] = v.Delta(prev.Sketches[k])
		}
	}
	return out
}

// Merge folds o into d: counters and gauges add, sketches merge, Nodes
// sum. Gauges add because fleet-level gauges are extensive quantities
// (queue depths, frames in flight); intensive per-node gauges divide by
// Nodes at presentation time.
func (d *Digest) Merge(o Digest) {
	if d == nil {
		return
	}
	d.Nodes += o.Nodes
	if len(o.Counters) > 0 && d.Counters == nil {
		d.Counters = make(map[string]int64, len(o.Counters))
	}
	for k, v := range o.Counters {
		d.Counters[k] += v
	}
	if len(o.Gauges) > 0 && d.Gauges == nil {
		d.Gauges = make(map[string]int64, len(o.Gauges))
	}
	for k, v := range o.Gauges {
		d.Gauges[k] += v
	}
	if len(o.Sketches) > 0 && d.Sketches == nil {
		d.Sketches = make(map[string]*Sketch, len(o.Sketches))
	}
	for k, v := range o.Sketches {
		if have := d.Sketches[k]; have != nil {
			have.Merge(v)
			continue
		}
		d.Sketches[k] = v.Clone()
	}
}

// Clone returns a deep copy of the digest.
func (d Digest) Clone() Digest {
	out := Digest{Nodes: d.Nodes}
	if len(d.Counters) > 0 {
		out.Counters = make(map[string]int64, len(d.Counters))
		for k, v := range d.Counters {
			out.Counters[k] = v
		}
	}
	if len(d.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(d.Gauges))
		for k, v := range d.Gauges {
			out.Gauges[k] = v
		}
	}
	if len(d.Sketches) > 0 {
		out.Sketches = make(map[string]*Sketch, len(d.Sketches))
		for k, v := range d.Sketches {
			out.Sketches[k] = v.Clone()
		}
	}
	return out
}

// SortedCounterNames returns the digest's counter names in ascending
// order — the deterministic iteration order for anything that renders or
// re-emits the digest.
func (d Digest) SortedCounterNames() []string {
	names := make([]string, 0, len(d.Counters))
	for k := range d.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SortedSketchNames returns the digest's sketch names in ascending order.
func (d Digest) SortedSketchNames() []string {
	names := make([]string, 0, len(d.Sketches))
	for k := range d.Sketches {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
