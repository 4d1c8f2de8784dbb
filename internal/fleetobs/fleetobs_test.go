package fleetobs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// capEndpoint records every sent message.
type capEndpoint struct {
	name string
	sent []protocol.Message
}

func (c *capEndpoint) Name() string                    { return c.name }
func (c *capEndpoint) Send(msg protocol.Message) error { c.sent = append(c.sent, msg); return nil }
func (c *capEndpoint) Inbox() <-chan protocol.Message  { return nil }
func (c *capEndpoint) Close() error                    { return nil }

func TestEmitterSendsIntervalDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("agent.frames").Add(10)
	reg.Histogram("agent.ack_ns").Observe(3 * time.Millisecond)

	ep := &capEndpoint{name: "node-1"}
	epoch := uint64(4)
	em, err := NewEmitter(ep, EmitterOptions{
		Node:          "node-1",
		To:            "fleet-c0-0000",
		Epoch:         func() uint64 { return epoch },
		Telemetry:     reg,
		LatencyMetric: "agent.ack_ns",
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := em.EmitNow(); err != nil {
		t.Fatal(err)
	}
	reg.Counter("agent.frames").Add(7)
	epoch = 5
	if err := em.EmitNow(); err != nil {
		t.Fatal(err)
	}

	if len(ep.sent) != 2 {
		t.Fatalf("sent %d messages, want 2", len(ep.sent))
	}
	first, second := ep.sent[0], ep.sent[1]
	if first.Type != protocol.MsgMetricReport || first.To != "fleet-c0-0000" || first.From != "node-1" {
		t.Fatalf("bad envelope: %+v", first)
	}
	if first.Epoch != 4 || second.Epoch != 5 {
		t.Fatalf("epochs = %d,%d want 4,5", first.Epoch, second.Epoch)
	}
	if first.Trace.Lamport == 0 || second.Trace.Lamport <= first.Trace.Lamport {
		t.Fatalf("lamport stamps not increasing: %d then %d", first.Trace.Lamport, second.Trace.Lamport)
	}
	if got := first.Report.Digest.Counters["agent.frames"]; got != 10 {
		t.Fatalf("first interval counter delta = %d, want 10", got)
	}
	if got := second.Report.Digest.Counters["agent.frames"]; got != 7 {
		t.Fatalf("second interval counter delta = %d, want 7", got)
	}
	if first.Report.Interval != 0 || second.Report.Interval != 1 {
		t.Fatalf("intervals = %d,%d", first.Report.Interval, second.Report.Interval)
	}
	if len(first.Report.Slowest) != 1 || first.Report.Slowest[0].Agent != "node-1" || first.Report.Slowest[0].Nanos < int64(3*time.Millisecond) {
		t.Fatalf("slowest entry missing or wrong: %+v", first.Report.Slowest)
	}
	// The second interval observed nothing new; the sketch delta is empty
	// but the cumulative slowest baseline persists.
	if got := second.Report.Digest.Sketches["agent.ack_ns"].Count(); got != 0 {
		t.Fatalf("second interval sketch delta count = %d, want 0", got)
	}
	if len(second.Report.Slowest) != 1 {
		t.Fatalf("baseline slowest entry should persist: %+v", second.Report.Slowest)
	}
}

func report(from string, interval uint64, agents []string, frames int64) protocol.Message {
	return protocol.Message{
		Type:  protocol.MsgMetricReport,
		From:  from,
		To:    "parent",
		Epoch: 1,
		Report: &protocol.MetricReport{
			Interval: interval,
			Agents:   agents,
			Slowest:  []protocol.AgentLatency{{Agent: agents[0], Nanos: frames * 1000}},
			Digest: telemetry.Digest{
				Nodes:    len(agents),
				Counters: map[string]int64{"agent.frames": frames},
			},
		},
	}
}

func TestShardRollupFoldsPerInterval(t *testing.T) {
	r := NewShardRollup(RollupOptions{
		Name:     "fleet-c0-0000",
		Parent:   "fleet-c1-0000",
		Children: []string{"a", "b", "c"},
	})

	out, ok := r.Absorb(report("a", 0, []string{"a"}, 5))
	if !ok || len(out) != 0 {
		t.Fatalf("first child report must fold silently, got %v", out)
	}
	out, _ = r.Absorb(report("b", 0, []string{"b"}, 7))
	if len(out) != 0 {
		t.Fatalf("partial fold must not flush, got %v", out)
	}
	out, _ = r.Absorb(report("c", 0, []string{"c"}, 9))
	if len(out) != 1 {
		t.Fatalf("complete fold must flush exactly one report, got %d", len(out))
	}
	up := out[0]
	if up.From != "fleet-c0-0000" || up.To != "fleet-c1-0000" || up.Type != protocol.MsgMetricReport {
		t.Fatalf("bad upstream envelope: %+v", up)
	}
	if up.Epoch != 1 {
		t.Fatalf("upstream epoch = %d, want 1", up.Epoch)
	}
	if got := up.Report.Digest.Counters["agent.frames"]; got != 21 {
		t.Fatalf("folded counter = %d, want 21", got)
	}
	if want := []string{"a", "b", "c"}; strings.Join(up.Report.Agents, ",") != strings.Join(want, ",") {
		t.Fatalf("folded agents = %v, want %v", up.Report.Agents, want)
	}
	if len(up.Report.Slowest) != 3 || up.Report.Slowest[0].Agent != "c" {
		// MergeSlowest sorts descending by latency: c (9000) first.
		t.Fatalf("folded slowest = %+v", up.Report.Slowest)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending after flush = %d", r.Pending())
	}

	// Unknown child: consumed but never folded.
	if out, ok := r.Absorb(report("zz", 1, []string{"zz"}, 1)); !ok || len(out) != 0 {
		t.Fatalf("misrouted report must be dropped, got %v", out)
	}
}

func TestShardRollupEvictsOldestPartial(t *testing.T) {
	r := NewShardRollup(RollupOptions{
		Name:       "c0",
		Children:   []string{"a", "b"},
		MaxPending: 2,
	})
	// Child b is silent; a keeps emitting. Intervals pile up until the
	// window evicts the oldest partial fold.
	var flushed []protocol.Message
	for i := uint64(0); i < 4; i++ {
		out, _ := r.Absorb(report("a", i, []string{"a"}, 1))
		flushed = append(flushed, out...)
	}
	if len(flushed) != 2 {
		t.Fatalf("expected 2 partial flushes, got %d", len(flushed))
	}
	if flushed[0].Report.Interval != 0 || flushed[1].Report.Interval != 1 {
		t.Fatalf("partials must flush oldest-first: %d then %d",
			flushed[0].Report.Interval, flushed[1].Report.Interval)
	}
	// Partial coverage is visible upstream: only agent a is listed.
	if len(flushed[0].Report.Agents) != 1 || flushed[0].Report.Agents[0] != "a" {
		t.Fatalf("partial flush coverage = %v", flushed[0].Report.Agents)
	}
	if r.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", r.Pending())
	}
}

func newTestState(t *testing.T, clk *simnet.ManualClock) *FleetState {
	t.Helper()
	s, err := NewFleetState(StateOptions{
		Clock: clk,
		Shards: map[string][]string{
			"shard-a": {"a1", "a2"},
			"shard-b": {"b1", "b2"},
		},
		ReportInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFleetStateHealthFromReportFreshness(t *testing.T) {
	clk := simnet.NewManualClock(time.Unix(1000, 0))
	s := newTestState(t, clk)

	v := s.View()
	if v.Shards[0].Health != HealthPending || v.Shards[1].Health != HealthPending {
		t.Fatalf("boot health = %v", v.Shards)
	}

	if !s.Absorb(report("shard-a", 0, []string{"a1", "a2"}, 3)) {
		t.Fatal("report not absorbed")
	}
	s.Absorb(report("shard-b", 0, []string{"b1"}, 2)) // partial coverage

	v = s.View()
	if v.Shards[0].Name != "shard-a" || v.Shards[0].Health != HealthHealthy {
		t.Fatalf("shard-a = %+v", v.Shards[0])
	}
	if v.Shards[1].Health != HealthDegraded {
		t.Fatalf("partial coverage must degrade: %+v", v.Shards[1])
	}
	if v.AgentsReporting != 3 || v.AgentsTotal != 4 {
		t.Fatalf("reporting %d/%d, want 3/4", v.AgentsReporting, v.AgentsTotal)
	}
	if v.Counters["agent.frames"] != 5 {
		t.Fatalf("fleet counter total = %d, want 5", v.Counters["agent.frames"])
	}

	// Freshness decay: stale → degraded → parked.
	clk.Advance(400 * time.Millisecond)
	if v := s.View(); v.Shards[0].Health != HealthDegraded {
		t.Fatalf("stale shard should degrade: %+v", v.Shards[0])
	}
	clk.Advance(2 * time.Second)
	if v := s.View(); v.Shards[0].Health != HealthParked {
		t.Fatalf("silent shard should park: %+v", v.Shards[0])
	}

	// Mirrored series exist for the FTDC capture.
	snap := s.Registry().Snapshot()
	if snap.Counters["fleetobs.reports"] != 2 || snap.Counters["fleetobs.agent.frames"] != 5 {
		t.Fatalf("mirrored counters = %v", snap.Counters)
	}
	if snap.Gauges["fleetobs.nodes.reporting"] != 3 {
		t.Fatalf("mirrored gauges = %v", snap.Gauges)
	}
}

func TestFleetStateEpochFencing(t *testing.T) {
	clk := simnet.NewManualClock(time.Unix(1000, 0))
	s := newTestState(t, clk)

	fresh := report("shard-a", 0, []string{"a1"}, 1)
	fresh.Epoch = 5
	s.Absorb(fresh)
	stale := report("shard-b", 0, []string{"b1"}, 100)
	stale.Epoch = 3
	s.Absorb(stale)

	v := s.View()
	if v.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", v.Epoch)
	}
	if v.Counters["agent.frames"] != 1 {
		t.Fatalf("fenced report leaked into totals: %v", v.Counters)
	}
	if v.Shards[1].Reports != 0 {
		t.Fatalf("fenced report credited shard-b: %+v", v.Shards[1])
	}
}

func TestFleetStateWaveFrontier(t *testing.T) {
	clk := simnet.NewManualClock(time.Unix(1000, 0))
	s := newTestState(t, clk)
	step := protocol.Step{PathIndex: 0, Attempt: 0, ActionID: "A1"}
	agents := []string{"a1", "a2", "b1", "b2"}

	s.WaveSent(step, protocol.MsgReset, agents)
	v := s.View()
	if len(v.Waves) != 2 {
		// A reset opens the reset frontier AND the adapt frontier, like
		// the coordinator's buckets.
		t.Fatalf("reset must open 2 frontiers, got %d", len(v.Waves))
	}
	if v.Waves[0].Phase != "reset" || v.Waves[0].Pending != 4 || v.Waves[0].Acked != 0 {
		t.Fatalf("reset frontier = %+v", v.Waves[0])
	}

	// Aggregated ack from shard-a's coordinator clears its slice.
	clk.Advance(30 * time.Millisecond)
	s.WaveAcked(step, protocol.MsgResetDone, "shard-a", []string{"a1", "a2"})
	v = s.View()
	w := v.Waves[0]
	if w.Acked != 2 || w.Pending != 2 || w.Done {
		t.Fatalf("after shard-a ack: %+v", w)
	}
	for _, ws := range w.Shards {
		switch ws.Name {
		case "shard-a":
			if ws.Acked != 2 || ws.Pending != 0 {
				t.Fatalf("shard-a slice = %+v", ws)
			}
		case "shard-b":
			if ws.Acked != 0 || ws.Pending != 2 {
				t.Fatalf("shard-b slice = %+v", ws)
			}
		}
	}
	// shard-a's completion seeded its ack-latency baseline.
	if v.Shards[0].AckP99 < 30*time.Millisecond {
		t.Fatalf("shard-a ack p99 = %v", v.Shards[0].AckP99)
	}

	// Individual acks drain shard-b; the frontier completes.
	s.WaveAcked(step, protocol.MsgResetDone, "b1", nil)
	s.WaveAcked(step, protocol.MsgResetDone, "b2", nil)
	// Duplicate ack must not double-credit.
	s.WaveAcked(step, protocol.MsgResetDone, "b2", nil)
	v = s.View()
	if !v.Waves[0].Done || v.Waves[0].Acked != 4 || v.Waves[0].Pending != 0 {
		t.Fatalf("completed frontier = %+v", v.Waves[0])
	}

	// Frontier gauges are mirrored for the capture.
	snap := s.Registry().Snapshot()
	if snap.Gauges["fleetobs.shard.shard-a.wave_acked"] != 0 && snap.Gauges["fleetobs.shard.shard-a.wave_pending"] != 0 {
		// The newest open frontier (adapt) still has everything pending.
		t.Fatalf("gauges should track the open adapt frontier: %v", snap.Gauges)
	}
	if snap.Gauges["fleetobs.wave.pending"] != 4 {
		t.Fatalf("open adapt frontier pending = %d, want 4", snap.Gauges["fleetobs.wave.pending"])
	}
}

func TestFleetStateStragglerDetection(t *testing.T) {
	clk := simnet.NewManualClock(time.Unix(1000, 0))
	s := newTestState(t, clk)
	agents := []string{"a1", "a2", "b1", "b2"}

	// Waves 0..4 complete quickly, seeding both shards' baselines.
	for i := 0; i < 5; i++ {
		step := protocol.Step{PathIndex: i, Attempt: 0}
		s.WaveSent(step, protocol.MsgResume, agents)
		clk.Advance(10 * time.Millisecond)
		s.WaveAcked(step, protocol.MsgResumeDone, "shard-a", []string{"a1", "a2"})
		s.WaveAcked(step, protocol.MsgResumeDone, "shard-b", []string{"b1", "b2"})
	}

	// Wave 5: shard-a acks fast, shard-b hangs past its p99 baseline.
	step := protocol.Step{PathIndex: 5, Attempt: 0}
	s.WaveSent(step, protocol.MsgResume, agents)
	clk.Advance(5 * time.Millisecond)
	s.WaveAcked(step, protocol.MsgResumeDone, "shard-a", []string{"a1", "a2"})
	clk.Advance(500 * time.Millisecond)

	v := s.View()
	wave := v.Waves[len(v.Waves)-1]
	if wave.Done {
		t.Fatalf("wave should still be open: %+v", wave)
	}
	var a, b WaveShardView
	for _, ws := range wave.Shards {
		if ws.Name == "shard-a" {
			a = ws
		} else {
			b = ws
		}
	}
	if a.Late {
		t.Fatalf("shard-a acked on time, must not be late: %+v", a)
	}
	if !b.Late {
		t.Fatalf("shard-b outlived its p99 baseline, must be late: %+v", b)
	}
}

func TestFleetHandlerAndRender(t *testing.T) {
	clk := simnet.NewManualClock(time.Unix(1000, 0))
	s := newTestState(t, clk)
	s.Absorb(report("shard-a", 3, []string{"a1", "a2"}, 9))
	s.WaveSent(protocol.Step{ActionID: "A2"}, protocol.MsgReset, []string{"a1", "a2", "b1", "b2"})

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var v FleetView
	if err := json.NewDecoder(res.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Reports != 1 || len(v.Shards) != 2 || len(v.Waves) != 2 {
		t.Fatalf("served view = %+v", v)
	}

	res2, err := srv.Client().Get(srv.URL + "/fleet?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var sb strings.Builder
	RenderText(&sb, v)
	text := sb.String()
	for _, want := range []string{"shard-a", "healthy", "shard-b", "pending", "wave step=0", "phase=reset", "4 pending", "slowest agents"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered view missing %q:\n%s", want, text)
		}
	}
}
