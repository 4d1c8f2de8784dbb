package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/simnet"
)

func agentNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
	}
	return names
}

func TestTopologyShape(t *testing.T) {
	topo, err := NewTopology(agentNames(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 8 agents, fanout 2: 4 leaf coords, 2 mid coords, depth 2.
	if topo.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", topo.Depth())
	}
	if len(topo.Coords) != 6 {
		t.Fatalf("coords = %d, want 6", len(topo.Coords))
	}
	if len(topo.Roots) != 2 {
		t.Fatalf("roots = %v, want 2", topo.Roots)
	}
	for _, r := range topo.Roots {
		c, ok := topo.Coord(r)
		if !ok || c.Parent != protocol.ManagerName {
			t.Fatalf("root %s parent = %q", r, c.Parent)
		}
	}
	// Every agent is covered exactly once at each level.
	seen := map[string]int{}
	for _, c := range topo.Coords {
		if c.Level != 0 {
			continue
		}
		for _, a := range c.Covers {
			seen[a]++
		}
		if c.Parent == "" {
			t.Fatalf("leaf %s has no parent", c.Name)
		}
	}
	for _, a := range topo.Agents {
		if seen[a] != 1 {
			t.Fatalf("agent %s covered %d times at level 0", a, seen[a])
		}
		if _, ok := topo.Uplink(a); !ok {
			t.Fatalf("agent %s has no leaf", a)
		}
		// Routing down from the root reaches the agent in Depth() hops,
		// and the first hop up from it is where the last hop down came from.
		at, hops := protocol.ManagerName, 0
		for at != a {
			next, ok := topo.NextHopDown(at, a)
			if !ok {
				t.Fatalf("no hop from %s toward %s", at, a)
			}
			if up, _ := topo.Uplink(next); up != at {
				t.Fatalf("%s reached from %s but its uplink is %s", next, at, up)
			}
			at, hops = next, hops+1
		}
		if hops != topo.Depth()+1 {
			t.Fatalf("agent %s is %d hops below the root, want %d", a, hops, topo.Depth()+1)
		}
	}
}

func TestTopologyDeterministic(t *testing.T) {
	a, err := NewTopology([]string{"c", "a", "b", "d", "e"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTopology([]string{"e", "d", "c", "b", "a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Coords, b.Coords) || !reflect.DeepEqual(a.Roots, b.Roots) {
		t.Fatalf("topology depends on input order:\n%+v\n%+v", a.Coords, b.Coords)
	}
}

func TestTopologyValidation(t *testing.T) {
	cases := [][]string{
		nil,                    // no agents
		{""},                   // empty name
		{"a", "a"},             // duplicate
		{protocol.ManagerName}, // reserved
		{"fleet-c0-0"},         // coordinator namespace
	}
	for _, agents := range cases {
		if _, err := NewTopology(agents, 2); err == nil {
			t.Fatalf("NewTopology(%v) accepted", agents)
		}
	}
	if _, err := NewTopology([]string{"a", "b"}, 1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
}

// stubEP records sends.
type stubEP struct {
	name string
	sent []protocol.Message
}

func (e *stubEP) Name() string                   { return e.name }
func (e *stubEP) Inbox() <-chan protocol.Message { return nil }
func (e *stubEP) Close() error                   { return nil }
func (e *stubEP) Send(m protocol.Message) error  { e.sent = append(e.sent, m); return nil }

func step01() protocol.Step {
	return protocol.Step{PathIndex: 0, Attempt: 1, ActionID: "S0"}
}

func newTestCoordinator(t *testing.T) (*Coordinator, *stubEP, *stubEP) {
	t.Helper()
	up := &stubEP{name: "c0"}
	down := &stubEP{name: "c0"}
	c, err := NewCoordinator(Options{
		Name: "c0", Parent: protocol.ManagerName, Up: up, Down: down,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, up, down
}

// TestCoordinatorRootLeaseWatchdog: a coordinator whose parent goes
// silent past the lease horizon parks its shard — pending aggregation
// buckets are dropped so late acks forward raw instead of completing a
// dead root's barriers — and the next parent message (a successor's
// probe, say) un-parks it.
func TestCoordinatorRootLeaseWatchdog(t *testing.T) {
	clk := simnet.NewManualClock(time.Unix(100, 0))
	up := &stubEP{name: "c0"}
	down := &stubEP{name: "c0"}
	c, err := NewCoordinator(Options{
		Name: "c0", Parent: protocol.ManagerName, Up: up, Down: down,
		LeaseTimeout: 500 * time.Millisecond, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A reset wave opens aggregation buckets and renews the lease.
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgReset, To: "a1", Step: step01(), Epoch: 2})
	if len(c.buckets) == 0 {
		t.Fatal("reset wave opened no buckets")
	}

	// Inside the horizon: not parked.
	clk.Advance(400 * time.Millisecond)
	if c.CheckLease() || c.Parked() {
		t.Fatal("parked before the lease horizon")
	}

	// Past the horizon: parked, buckets gone.
	clk.Advance(200 * time.Millisecond)
	if !c.CheckLease() || !c.Parked() {
		t.Fatal("lease horizon passed but the shard did not park")
	}
	if len(c.buckets) != 0 {
		t.Fatalf("parked shard still tracks %d buckets", len(c.buckets))
	}

	// A late ack for the dead root's wave forwards raw (never completes a
	// barrier), so the successor still sees it.
	c.DeliverFromChild(protocol.Message{Type: protocol.MsgResetDone, From: "a1", Step: step01(), Epoch: 2})
	if len(up.sent) != 1 || up.sent[0].From != "a1" {
		t.Fatalf("parked shard swallowed the ack: %+v", up.sent)
	}

	// The successor manager's first message un-parks the shard.
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgProbe, To: "a1", Epoch: 3})
	if c.Parked() {
		t.Fatal("parent traffic did not un-park the shard")
	}

	// And the lease is renewed from that message, not the old timestamp.
	clk.Advance(400 * time.Millisecond)
	if c.CheckLease() {
		t.Fatal("renewed lease expired too early")
	}
}

func TestCoordinatorRelaysAndAggregates(t *testing.T) {
	c, up, down := newTestCoordinator(t)
	agents := []string{"a1", "a2", "a3"}
	var wave []protocol.Message
	for _, a := range agents {
		wave = append(wave, protocol.Message{
			Type: protocol.MsgReset, To: a, Step: step01(), Epoch: 5,
			Trace: protocol.TraceContext{TraceID: "T1", Lamport: 7},
		})
	}
	c.DeliverFromParent(protocol.PackBatch("c0", wave))

	if len(down.sent) != 3 {
		t.Fatalf("relayed %d commands, want 3", len(down.sent))
	}
	for i, m := range down.sent {
		if m.Type != protocol.MsgReset || m.To != agents[i] || m.Epoch != 5 {
			t.Fatalf("relay %d = %+v", i, m)
		}
		if m.Step.PathIndex != 0 || m.Step.Attempt != 1 || m.Step.ActionID != "S0" {
			t.Fatalf("relay %d lost the step: %+v", i, m.Step)
		}
		if m.Trace.TraceID != "T1" {
			t.Fatalf("relay %d lost the trace: %+v", i, m.Trace)
		}
	}
	if c.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", c.Epoch())
	}

	// Partial acks produce nothing upstream.
	for _, a := range agents[:2] {
		c.DeliverFromChild(protocol.Message{Type: protocol.MsgResetDone, From: a, Step: step01(), Epoch: 5})
	}
	if len(up.sent) != 0 {
		t.Fatalf("premature upstream ack: %+v", up.sent)
	}
	// The last ack completes the wave: one aggregated ack covering all.
	c.DeliverFromChild(protocol.Message{Type: protocol.MsgResetDone, From: "a3", Step: step01(), Epoch: 5})
	if len(up.sent) != 1 {
		t.Fatalf("upstream = %d messages, want 1", len(up.sent))
	}
	ack := up.sent[0]
	if ack.Type != protocol.MsgResetDone || ack.From != "c0" || ack.To != protocol.ManagerName {
		t.Fatalf("aggregated ack = %+v", ack)
	}
	if !reflect.DeepEqual(ack.Agents, agents) {
		t.Fatalf("ack covers %v, want %v", ack.Agents, agents)
	}
	if ack.Epoch != 5 || ack.Trace.TraceID != "T1" || ack.Trace.Origin != "c0" {
		t.Fatalf("ack lost fencing/trace: %+v", ack)
	}

	// The reset wave also opened the adapt barrier: adapt-done acks
	// aggregate without another downward command.
	up.sent = nil
	for _, a := range agents {
		c.DeliverFromChild(protocol.Message{Type: protocol.MsgAdaptDone, From: a, Step: step01(), Epoch: 5})
	}
	if len(up.sent) != 1 || up.sent[0].Type != protocol.MsgAdaptDone {
		t.Fatalf("adapt aggregate = %+v", up.sent)
	}
}

func TestCoordinatorAggregatesChildCoordinatorAcks(t *testing.T) {
	c, up, _ := newTestCoordinator(t)
	var wave []protocol.Message
	for _, a := range []string{"a1", "a2", "a3", "a4"} {
		wave = append(wave, protocol.Message{Type: protocol.MsgResume, To: a, Step: step01(), Epoch: 2})
	}
	c.DeliverFromParent(protocol.PackBatch("c0", wave))
	// Two child coordinators each ack their half.
	c.DeliverFromChild(protocol.Message{
		Type: protocol.MsgResumeDone, From: "child-a", Step: step01(), Epoch: 2,
		Agents: []string{"a1", "a2"},
	})
	if len(up.sent) != 0 {
		t.Fatalf("premature aggregate: %+v", up.sent)
	}
	c.DeliverFromChild(protocol.Message{
		Type: protocol.MsgResumeDone, From: "child-b", Step: step01(), Epoch: 2,
		Agents: []string{"a3", "a4"},
	})
	if len(up.sent) != 1 {
		t.Fatalf("upstream = %d, want 1", len(up.sent))
	}
	if got := up.sent[0].Agents; !reflect.DeepEqual(got, []string{"a1", "a2", "a3", "a4"}) {
		t.Fatalf("covers %v", got)
	}
}

func TestCoordinatorFencesStaleEpochs(t *testing.T) {
	c, _, down := newTestCoordinator(t)
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgReset, To: "a1", Step: step01(), Epoch: 5})
	down.sent = nil
	// A command from a superseded manager incarnation dies at the relay.
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgReset, To: "a1", Step: step01(), Epoch: 3})
	if len(down.sent) != 0 {
		t.Fatalf("stale-epoch command relayed: %+v", down.sent)
	}
	// Epoch 0 (journalless manager) is always admitted.
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgProbe, To: "a1", Epoch: 0})
	if len(down.sent) != 1 {
		t.Fatalf("epoch-0 command dropped")
	}
}

func TestCoordinatorForwardsWhatItCannotAggregate(t *testing.T) {
	c, up, _ := newTestCoordinator(t)
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgReset, To: "a1", Step: step01(), Epoch: 2})

	// Failures pass through untouched, preserving the original sender.
	fail := protocol.Message{
		Type: protocol.MsgResetFailed, From: "a1", Step: step01(), Epoch: 2, Error: "boom",
	}
	c.DeliverFromChild(fail)
	if len(up.sent) != 1 || up.sent[0].From != "a1" || up.sent[0].Error != "boom" {
		t.Fatalf("failure not forwarded raw: %+v", up.sent)
	}
	up.sent = nil

	// An ack for a wave this (restarted) coordinator is not tracking is
	// forwarded raw rather than dropped: aggregation is lost, the ack is
	// not.
	stray := protocol.Message{
		Type: protocol.MsgResumeDone, From: "a9",
		Step: protocol.Step{PathIndex: 3, Attempt: 2}, Epoch: 2,
	}
	c.DeliverFromChild(stray)
	if len(up.sent) != 1 || up.sent[0].From != "a9" {
		t.Fatalf("stray ack not forwarded: %+v", up.sent)
	}
}

func TestCoordinatorSupersededWaveIsPruned(t *testing.T) {
	c, up, _ := newTestCoordinator(t)
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgReset, To: "a1", Step: protocol.Step{PathIndex: 0, Attempt: 1}, Epoch: 1})
	// A later attempt supersedes the old wave's buckets.
	c.DeliverFromParent(protocol.Message{Type: protocol.MsgReset, To: "a1", Step: protocol.Step{PathIndex: 0, Attempt: 2}, Epoch: 1})
	// An ack for the superseded attempt no longer aggregates; it is
	// forwarded raw (the manager's stale-attempt filter discards it).
	c.DeliverFromChild(protocol.Message{Type: protocol.MsgResetDone, From: "a1", Step: protocol.Step{PathIndex: 0, Attempt: 1}, Epoch: 1})
	if len(up.sent) != 1 || len(up.sent[0].Agents) != 0 {
		t.Fatalf("superseded ack handling = %+v", up.sent)
	}
}

func TestSimFlatCompletes(t *testing.T) {
	res, err := RunSim(SimConfig{Agents: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 5 {
		t.Fatalf("flat run: %+v", res)
	}
	// 5 steps × (reset, adapt, resume) waves, all sampled.
	if len(res.Samples) != 15 {
		t.Fatalf("samples = %d, want 15", len(res.Samples))
	}
	if res.Depth != 0 || res.Coords != 0 {
		t.Fatalf("flat run grew a tree: %+v", res)
	}
}

func TestSimHierarchicalCompletes(t *testing.T) {
	res, err := RunSim(SimConfig{Agents: 64, Fanout: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 5 {
		t.Fatalf("hier run: %+v", res)
	}
	if len(res.Samples) != 15 {
		t.Fatalf("samples = %d, want 15", len(res.Samples))
	}
	// 64 agents at fanout 4: 16 leaves + 4 mids = 20 coords, depth 2.
	if res.Depth != 2 || res.Coords != 20 {
		t.Fatalf("tree shape: depth %d coords %d", res.Depth, res.Coords)
	}
	// The root's frame count must be O(fan-out·waves), nowhere near
	// O(agents·waves).
	flat, err := RunSim(SimConfig{Agents: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RootFrames*4 > flat.RootFrames {
		t.Fatalf("root frames: hier %d vs flat %d", res.RootFrames, flat.RootFrames)
	}
	if res.RootRecv*4 > flat.RootRecv {
		t.Fatalf("root recv: hier %d vs flat %d", res.RootRecv, flat.RootRecv)
	}
}

func TestSimDeterministic(t *testing.T) {
	a, err := RunSim(SimConfig{Agents: 32, Fanout: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(SimConfig{Agents: 32, Fanout: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
}

// TestSimHierarchicalSpeedupAt4096 is the PR's acceptance criterion: a
// 4096-agent adaptation through the hierarchical plane must beat the
// flat manager's p99 wave latency by at least 5× at the same size.
func TestSimHierarchicalSpeedupAt4096(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-agent sweep")
	}
	flat, err := RunSim(SimConfig{Agents: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := RunSim(SimConfig{Agents: 4096, Fanout: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Completed || !hier.Completed {
		t.Fatalf("incomplete: flat %+v hier %+v", flat, hier)
	}
	if hier.P99 <= 0 || flat.P99 < 5*hier.P99 {
		t.Fatalf("p99: flat %v vs hier %v (need >= 5x)", flat.P99, hier.P99)
	}
	t.Logf("4096 agents: flat p99 %v, hier p99 %v (%.1fx), root frames %d -> %d",
		flat.P99, hier.P99, float64(flat.P99)/float64(hier.P99), flat.RootFrames, hier.RootFrames)
}
