package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("y")
	g.Set(10)
	g.Add(-3)
	if got := r.Gauge("y").Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Same name returns the same metric.
	if r.Counter("x") != c || r.Gauge("y") != g {
		t.Fatal("metric lookup is not stable by name")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h").Observe(time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1..100 ms in shuffled order: the nearest-rank q-quantile is q*100 ms,
	// and the sketch reads it back within its documented bound — never
	// below, at most 1/16th above, and never above the exact maximum.
	perm := rand.New(rand.NewSource(1)).Perm(100)
	for _, i := range perm {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	within := func(what string, got, exact time.Duration) {
		t.Helper()
		if got < exact || got > exact+exact/16 || got > 100*time.Millisecond {
			t.Errorf("%s = %v, want within [%v, %v]", what, got, exact, exact+exact/16)
		}
	}
	within("Quantile(0)", h.Quantile(0), 1*time.Millisecond)
	within("Quantile(0.5)", h.Quantile(0.50), 50*time.Millisecond)
	within("Quantile(0.95)", h.Quantile(0.95), 95*time.Millisecond)
	within("Quantile(0.99)", h.Quantile(0.99), 99*time.Millisecond)
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("Quantile(1) = %v, want the exact maximum 100ms", got)
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("summary count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	within("summary P50", s.P50, 50*time.Millisecond)
	within("summary P95", s.P95, 95*time.Millisecond)
	within("summary P99", s.P99, 99*time.Millisecond)
	if wantMean := 50*time.Millisecond + 500*time.Microsecond; s.Mean != wantMean {
		t.Fatalf("mean = %v, want %v", s.Mean, wantMean)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(7 * time.Millisecond)
	s := h.Summary()
	if s.P50 != 7*time.Millisecond || s.P99 != 7*time.Millisecond {
		t.Fatalf("single-sample quantiles = %v/%v", s.P50, s.P99)
	}
}

// TestHistogramCoversEveryObservation: quantiles are over everything
// observed, not a recent window, and the memory that takes is set by the
// bucket geometry, not by the number of observations.
func TestHistogramCoversEveryObservation(t *testing.T) {
	const n = 100000
	var h Histogram
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i))
	}
	s := h.Summary()
	if s.Count != n || s.Min != 0 || s.Max != n-1 {
		t.Fatalf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	// The exact median of 0..n-1 is n/2-1; a window of recent samples
	// would answer near n.
	if exact := time.Duration(n/2 - 1); s.P50 < exact || s.P50 > exact+exact/16 {
		t.Fatalf("P50 = %v, want within 1/16th above %v", s.P50, exact)
	}
	h.mu.Lock()
	buckets := len(h.sketch.counts)
	h.mu.Unlock()
	if buckets > sketchMaxBuckets || buckets > 300 {
		t.Fatalf("%d buckets for values below 2^17, want a few hundred at most", buckets)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// None of these may panic, and all must be no-ops.
	r.Counter("a").Inc()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(1)
	r.Gauge("b").Add(1)
	r.Histogram("c").Observe(time.Second)
	r.Histogram("c").ObserveSince(time.Now())
	r.Eventf("scope", "msg %d", 1)
	if got := r.Counter("a").Value(); got != 0 {
		t.Fatalf("nil counter = %d", got)
	}
	if got := r.Histogram("c").Quantile(0.5); got != 0 {
		t.Fatalf("nil quantile = %v", got)
	}
	sp := r.StartSpan("root", String("k", "v"))
	if sp != nil {
		t.Fatal("StartSpan on nil registry must return nil")
	}
	sp.SetAttr("k", "v")
	sp.SetError(fmt.Errorf("x"))
	sp.SetErrorText("x")
	sp.Eventf("s", "m")
	child := sp.Child("c")
	child.End()
	sp.End()
	if sp.ID() != 0 || len(r.Spans()) != 0 || len(r.Events()) != 0 {
		t.Fatal("nil span/registry leaked state")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps").Add(3)
	r.Gauge("in_flight").Set(2)
	r.Histogram("lat").Observe(time.Millisecond)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["steps"] != 3 || back.Gauges["in_flight"] != 2 {
		t.Fatalf("round-trip lost metrics: %s", data)
	}
	if back.Histograms["lat"].Count != 1 {
		t.Fatalf("round-trip lost histogram: %s", data)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	sp := r.StartSpan("adaptation")
	sp.Child("step").End()
	sp.End()
	r.Eventf("manager", "MAP: A2, A17")

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	var snap Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.Counters["hits"] != 1 {
		t.Fatalf("metrics endpoint lost counter: %+v", snap)
	}
	var dbg struct {
		Spans  []SpanRecord  `json:"spans"`
		Events []EventRecord `json:"events"`
	}
	getJSON(t, srv.URL+"/debug/adaptation", &dbg)
	if len(dbg.Spans) != 2 || len(dbg.Events) != 1 {
		t.Fatalf("debug endpoint spans=%d events=%d", len(dbg.Spans), len(dbg.Events))
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/adaptation?tree=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(body); !strings.Contains(got, "adaptation") || !strings.Contains(got, "  step") {
		t.Fatalf("tree output missing spans:\n%s", got)
	}
}

func TestHTTPHandlerNilRegistry(t *testing.T) {
	var r *Registry
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	var snap Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry served metrics: %+v", snap)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("adapt.steps").Add(3)
	r.Gauge("agents.connected").Set(2)
	r.Histogram("step.latency").Observe(250 * time.Millisecond)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE adapt_steps_total counter\nadapt_steps_total 3\n",
		"# TYPE agents_connected gauge\nagents_connected 2\n",
		"# TYPE step_latency_seconds summary\n",
		"step_latency_seconds{quantile=\"0.5\"} 0.25\n",
		"step_latency_seconds_sum 0.25\n",
		"step_latency_seconds_count 1\n",
		"# TYPE safeadapt_uptime_seconds gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "adapt.steps") {
		t.Errorf("metric name not sanitized:\n%s", out)
	}
}

// TestPrometheusDeterministic: equal snapshots must render byte-identical
// text (map iteration order must not leak into the output).
func TestPrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m", "b", "k"} {
		r.Counter("c." + n).Inc()
		r.Gauge("g." + n).Set(1)
	}
	snap := r.Snapshot()
	var first strings.Builder
	WritePrometheus(&first, snap)
	for i := 0; i < 5; i++ {
		var again strings.Builder
		WritePrometheus(&again, snap)
		if again.String() != first.String() {
			t.Fatalf("run %d rendered differently:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
	// Sanity: names in sorted order.
	za := strings.Index(first.String(), "c_a_total")
	zz := strings.Index(first.String(), "c_z_total")
	if za < 0 || zz < 0 || za > zz {
		t.Fatalf("counters not sorted:\n%s", first.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"adapt.steps":        "adapt_steps",
		"flightrec.dumps":    "flightrec_dumps",
		"already_fine:ok":    "already_fine:ok",
		"9starts.with.digit": "_9starts_with_digit",
		"dash-and space":     "dash_and_space",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAdoptCurrentTraceAllocs: an agent adopts the trace of every message
// it receives, and all but the first of an adaptation carry the trace
// already current, which costs nothing; a new trace is adopted.
func TestAdoptCurrentTraceAllocs(t *testing.T) {
	r := NewRegistry()
	id := fmt.Sprintf("adapt-%06d", 17)
	r.AdoptActiveTrace(id)
	if n := testing.AllocsPerRun(100, func() { r.AdoptActiveTrace(id) }); n != 0 {
		t.Errorf("adopting the current trace allocates %.0f times, want 0", n)
	}
	r.AdoptActiveTrace("adapt-000018")
	if got := r.ActiveTrace(); got != "adapt-000018" {
		t.Errorf("active trace %q after adopting a new one", got)
	}
}
