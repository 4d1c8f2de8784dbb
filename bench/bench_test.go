package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/metasocket"
)

func TestQuantile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.P50 != 2 || s.Max != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestAttribute checks the self-time rule: a span's share is its duration
// minus what its nested or concurrent children cover, and the shares of one
// operation sum to its root.
func TestAttribute(t *testing.T) {
	spans := []span{
		{Name: "execute", Start: 0, End: 100},
		{Name: "commit", Start: 10, End: 50}, // nested in execute
		{Name: "sync", Start: 20, End: 30},   // nested in commit
		{Name: "reset", Start: 60, End: 90},  // two agents resetting concurrently
		{Name: "reset", Start: 70, End: 80},
		{Name: "late", Start: 95, End: 120}, // runs past the root: clipped
	}
	got := attribute(spans)
	want := map[string]int64{"execute": 25, "commit": 30, "sync": 10, "reset": 30, "late": 5}
	var sum int64
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s: got %d ns, want %d", name, got[name], ns)
		}
		sum += got[name]
	}
	if sum != 100 {
		t.Errorf("shares sum to %d, want the root's 100", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("execute")
	child := tr.begin("commit")
	tr.async("standby", time.Now(), time.Now())
	tr.end(child)
	tr.end(root)
	tr.async("stray", time.Now(), time.Now()) // no operation open: dropped
	if len(tr.kept) != 3 {
		t.Fatalf("kept %d spans, want 3", len(tr.kept))
	}
	if tr.kept[1].Parent != tr.kept[0].ID || tr.kept[2].Parent != tr.kept[1].ID {
		t.Errorf("parents: %+v", tr.kept)
	}
	if tr.ops != 1 {
		t.Errorf("aggregated %d operations, want 1", tr.ops)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // must not panic
}

// TestCompletionClock checks that a frame completes at its last fragment
// on the last client, not before.
func TestCompletionClock(t *testing.T) {
	c := newCompletionClock(2)
	deliver := func(frame uint32, fragments int) {
		for i := 0; i < fragments; i++ {
			c.observe(metasocket.Packet{Frame: frame, Index: uint16(i), Count: fragsPerFrame})
		}
	}
	deliver(0, fragsPerFrame) // one client has all of frame 0
	deliver(0, fragsPerFrame-1)
	if _, ok := c.completedAt(0); ok {
		t.Fatal("frame 0 complete with a fragment outstanding on the second client")
	}
	time.Sleep(time.Millisecond)
	deliver(0, 1)
	at, ok := c.completedAt(0)
	if !ok || at < time.Millisecond {
		t.Fatalf("frame 0 completedAt = %v, %v", at, ok)
	}
	if _, ok := c.completedAt(1); ok {
		t.Fatal("frame 1 complete without a delivery")
	}
	c.observe(metasocket.Packet{Frame: 7}) // out of range: ignored
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func names(list []struct{ Name string }) []string {
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d names %v, want %d %v", what, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %q where BENCHMARK.json has %q", what, got[i], want[i])
		}
	}
}

// checkRun asserts what every run must satisfy whatever the host's speed:
// all correctness checks passed, no operation failed, every metric is a
// finite number.
func checkRun(t *testing.T, rep *report) {
	t.Helper()
	if len(rep.Problems) > 0 || !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v",
			rep.Workload, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Problems)
	}
	for name, m := range rep.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s: metric %s = %+v", rep.Workload, name, m)
		}
	}
}

// TestEndToEndRuns runs every workload for a second and checks the result
// against BENCHMARK.json: same workloads, and on each exactly the
// end-to-end metrics listed, none of them zero.
func TestEndToEndRuns(t *testing.T) {
	file := readBenchmarkFile(t)
	sameNames(t, "workloads", append([]string(nil), sortedCopy(workloadNames)...), names(file.Workloads))
	for _, name := range workloadNames {
		rep, err := run(name, 42, 1, false, t.TempDir(), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRun(t, rep)
		sameNames(t, name+" end-to-end metrics", sortedKeys(rep.Result.Metrics), names(file.EndToEnd))
		for metricName, m := range rep.Result.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", name, metricName, m.Value)
			}
		}
		for _, timing := range rep.Timings {
			if timing.N == 0 {
				t.Errorf("%s: a timing has no samples: %+v", name, rep.Timings)
			}
		}
	}
}

// TestTracedRun runs the traced path once and checks that it reports
// exactly BENCHMARK.json's per-layer metrics, writes the span file, and
// that the blocking-path segments add up to the adaptation.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	rep, err := run("adapt_prod", 42, 3, true, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, rep)
	sameNames(t, "per-layer metrics", sortedKeys(rep.Result.Metrics), names(readBenchmarkFile(t).PerLayer))

	m := rep.Result.Metrics
	var parts float64
	for _, name := range []string{
		"journal.append_us", "journal.sync_us", "replica.ack_wait_us", "replica.standby_append_us",
		"replica.standby_sync_us", "transport.send_us", "agent.reset_us", "agent.inaction_us",
		"agent.resume_us", "manager.unattributed_us",
	} {
		parts += m[name].Value
	}
	if whole := m["manager.execute_us"].Value; math.Abs(parts-whole) > whole*1e-6 {
		t.Errorf("blocking-path segments sum to %.3f us, manager.execute_us is %.3f", parts, whole)
	}
	if lag := m["replica.lag_records_at_end"].Value; lag != 0 {
		t.Errorf("standby lags by %v records", lag)
	}

	body, err := os.ReadFile(dir + "/trace-adapt_prod.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(body, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %d spans, %v", len(spans), err)
	}
	if spans[0].Name != "manager.execute" || spans[0].Parent != 0 {
		t.Errorf("first span %+v, want a manager.execute root", spans[0])
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func TestCompare(t *testing.T) {
	mk := func(p50, fsyncs float64, failed int) *reportFile {
		return &reportFile{Runs: []*report{{
			Workload: "adapt_prod", Status: "resolved",
			Result: result{Correct: failed == 0, Attempted: 100, Failed: failed},
			Detail: map[string]metric{
				"adapt_p50_ms":     {p50, "ms"},
				"fsyncs_per_adapt": {fsyncs, "count"},
				"cpu_us_per_adapt": {1, "us"}, // not gated
			},
		}}}
	}
	base := mk(2.0, 36, 0)
	for _, c := range []struct {
		name string
		b    *reportFile
		want int
	}{
		{"identical", mk(2.0, 36, 0), 0},
		{"within the bound", mk(2.19, 36, 0), 0},
		{"better", mk(1.0, 30, 0), 0},
		{"latency beyond its bound", mk(2.21, 36, 0), 1},
		{"a count that must not rise", mk(2.0, 37, 0), 1},
		{"more failures", mk(2.0, 36, 1), 1},
	} {
		if got := compareRuns(base, c.b); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
}
