package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// sketchDistributions are the shapes the property tests sweep: uniform,
// heavy-tailed, tightly clustered, and degenerate.
func sketchDistributions(rng *rand.Rand, n int) map[string][]time.Duration {
	uniform := make([]time.Duration, n)
	heavy := make([]time.Duration, n)
	cluster := make([]time.Duration, n)
	constant := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		uniform[i] = time.Duration(rng.Int63n(50 * int64(time.Millisecond)))
		heavy[i] = time.Duration(rng.Int63n(1000)) // mostly sub-microsecond...
		if rng.Intn(50) == 0 {
			heavy[i] = time.Duration(rng.Int63n(int64(10 * time.Second))) // ...with rare huge outliers
		}
		cluster[i] = 200*time.Microsecond + time.Duration(rng.Int63n(int64(5*time.Microsecond)))
		constant[i] = 42 * time.Millisecond
	}
	return map[string][]time.Duration{
		"uniform": uniform, "heavy": heavy, "cluster": cluster, "constant": constant,
	}
}

func sketchOf(samples []time.Duration) *Sketch {
	s := &Sketch{}
	for _, d := range samples {
		s.Observe(d)
	}
	return s
}

// nearestRank is the exact reference the sketch is held against: the
// nearest-rank q-quantile (rank ceil(q*n), 1-based, clamped to [1,n]) of
// an ascending-sorted sample slice.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSketchQuantileErrorBound pins the sketch's accuracy contract
// against the exact reference, nearestRank: the sketch
// quantile never undershoots the exact nearest-rank sample and overshoots
// by at most 1/16th (one log-linear sub-bucket), at every probed quantile
// of every distribution shape.
func TestSketchQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, samples := range sketchDistributions(rng, 4000) {
		sk := sketchOf(samples)
		sorted := append([]time.Duration(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			exact := nearestRank(sorted, q)
			got := sk.Quantile(q)
			if got < exact {
				t.Errorf("%s q=%v: sketch %v undershoots exact %v", name, q, got, exact)
			}
			if max := exact + exact/16; got > max {
				t.Errorf("%s q=%v: sketch %v overshoots exact %v beyond the 1/16 bound (%v)", name, q, got, exact, max)
			}
		}
		if sk.Count() != int64(len(samples)) {
			t.Errorf("%s: sketch count %d, want %d", name, sk.Count(), len(samples))
		}
	}
}

// TestSketchMergeCommutative checks a⊕b = b⊕a across random splits of
// random sample sets.
func TestSketchMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(time.Second)))
		}
		cut := rng.Intn(n + 1)
		a, b := sketchOf(samples[:cut]), sketchOf(samples[cut:])

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !sketchEqual(ab, ba) {
			t.Fatalf("trial %d: merge is not commutative", trial)
		}
		// Either order equals the sketch of the whole sample set.
		if whole := sketchOf(samples); !sketchEqual(ab, whole) {
			t.Fatalf("trial %d: merged sketch differs from directly observed sketch", trial)
		}
	}
}

// TestSketchMergeAssociative checks (a⊕b)⊕c = a⊕(b⊕c).
func TestSketchMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		parts := make([]*Sketch, 3)
		for i := range parts {
			parts[i] = &Sketch{}
			for j, n := 0, rng.Intn(300); j < n; j++ {
				parts[i].Observe(time.Duration(rng.Int63n(int64(time.Minute))))
			}
		}
		left := parts[0].Clone()
		left.Merge(parts[1])
		left.Merge(parts[2])
		bc := parts[1].Clone()
		bc.Merge(parts[2])
		right := parts[0].Clone()
		right.Merge(bc)
		if !sketchEqual(left, right) {
			t.Fatalf("trial %d: merge is not associative", trial)
		}
	}
}

func sketchEqual(a, b *Sketch) bool {
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		return false
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			return false
		}
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return string(aj) == string(bj)
}

// TestSketchDeltaRoundTrip: (cumulative now).Delta(cumulative before)
// merged back onto the before-state reproduces the now-state — the
// algebra the interval emitter relies on.
func TestSketchDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := &Sketch{}
	for i := 0; i < 100; i++ {
		s.Observe(time.Duration(rng.Int63n(int64(time.Second))))
	}
	before := s.Clone()
	for i := 0; i < 150; i++ {
		s.Observe(time.Duration(rng.Int63n(int64(time.Second))))
	}
	delta := s.Delta(before)
	if delta.Count() != 150 {
		t.Fatalf("delta count = %d, want 150", delta.Count())
	}
	rebuilt := before.Clone()
	rebuilt.Merge(delta)
	if rebuilt.Sum() != s.Sum() {
		// Merge carries bucket counts plus the delta's sum; totals must
		// reconstruct exactly.
		t.Fatalf("rebuilt sum %d, want %d", rebuilt.Sum(), s.Sum())
	}
	if !sketchEqual(rebuilt, s) {
		t.Fatal("before ⊕ delta != now")
	}
}

// TestSketchJSONRoundTrip: the sparse wire encoding reconstructs an
// equivalent sketch, and equal sketches encode byte-identically (the
// determinism the wave frames rely on).
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := &Sketch{}
	for i := 0; i < 1000; i++ {
		s.Observe(time.Duration(rng.Int63n(int64(time.Hour))))
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Bucket counts survive exactly; Sum rides alongside.
	if back.Count() != s.Count() || back.Sum() != s.Sum() {
		t.Fatalf("round trip changed totals: %d/%d -> %d/%d", s.Count(), s.Sum(), back.Count(), back.Sum())
	}
	if !sketchEqual(&back, s) {
		t.Fatal("round trip changed the distribution")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("equal sketches encode differently")
	}
}

// TestDigestMergeAndDelta exercises the full digest algebra: registry →
// cumulative digest → interval delta → fold, with gauges instantaneous
// and counters/sketches additive.
func TestDigestMergeAndDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("frames").Add(100)
	reg.Gauge("depth").Set(7)
	reg.Histogram("lat").Observe(100 * time.Microsecond)
	before := reg.DigestSample()

	reg.Counter("frames").Add(25)
	reg.Gauge("depth").Set(3)
	reg.Histogram("lat").Observe(200 * time.Microsecond)
	delta := reg.DigestSample().Delta(before)

	if delta.Counters["frames"] != 25 {
		t.Fatalf("counter delta = %d, want 25", delta.Counters["frames"])
	}
	if delta.Gauges["depth"] != 3 {
		t.Fatalf("gauge in delta = %d, want instantaneous 3", delta.Gauges["depth"])
	}
	if delta.Sketches["lat"].Count() != 1 {
		t.Fatalf("sketch delta count = %d, want 1", delta.Sketches["lat"].Count())
	}

	// Fold three shards' deltas in two different orders; same result.
	shard := func(frames int64, depth int64) Digest {
		return Digest{
			Nodes:    1,
			Counters: map[string]int64{"frames": frames},
			Gauges:   map[string]int64{"depth": depth},
			Sketches: map[string]*Sketch{"lat": sketchOf([]time.Duration{time.Duration(frames) * time.Microsecond})},
		}
	}
	a, b, c := shard(10, 1), shard(20, 2), shard(30, 3)
	one := a.Clone()
	one.Merge(b)
	one.Merge(c)
	two := c.Clone()
	two.Merge(a)
	two.Merge(b)
	if !reflect.DeepEqual(one.Counters, two.Counters) || !reflect.DeepEqual(one.Gauges, two.Gauges) {
		t.Fatal("digest merge is order-sensitive")
	}
	if one.Nodes != 3 || one.Counters["frames"] != 60 || one.Gauges["depth"] != 6 {
		t.Fatalf("folded digest wrong: %+v", one)
	}
	if !sketchEqual(one.Sketches["lat"], two.Sketches["lat"]) {
		t.Fatal("sketch fold is order-sensitive")
	}
}

// TestHistogramSketchUnwindowed: the histogram's sketch counts every
// observation, however many there were.
func TestHistogramSketchUnwindowed(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 2548; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Sketch().Count(); got != 2548 {
		t.Fatalf("sketch count = %d, want 2548", got)
	}
	if q := h.Sketch().Quantile(0.5); q < time.Millisecond || q > time.Millisecond+time.Millisecond/16 {
		t.Fatalf("sketch p50 = %v, want ~1ms", q)
	}
	var nilH *Histogram
	if nilH.Sketch() != nil {
		t.Fatal("nil histogram must yield nil sketch")
	}
	var nilS *Sketch
	nilS.Observe(time.Second)
	nilS.Merge(&Sketch{})
	if nilS.Quantile(0.5) != 0 || nilS.Count() != 0 || nilS.Clone() != nil || nilS.Delta(nil) != nil {
		t.Fatal("nil sketch methods must be no-ops")
	}
}
