package fleet

import (
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/telemetry"
)

// TestFleetAdaptationOverTCP runs a full 5-step adaptation through a real
// 2-level plane on loopback TCP: manager → 2 mid coordinators → 4 leaf
// coordinators → 8 agents, every hop a multiplexed connection. The waves
// must complete and the acks must actually have been aggregated by the
// coordinators (not just forwarded).
func TestFleetAdaptationOverTCP(t *testing.T) {
	topo, err := NewTopology(agentNames(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	rig, err := NewRig(topo, RigOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()

	reg, pl, source, target, err := DemoScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range topo.Agents {
		ag, aerr := agent.New(name, rig.AgentEndpoint(name), NopProcess{}, agent.Options{
			ProcessOf: DemoProcessOf(reg),
		})
		if aerr != nil {
			t.Fatal(aerr)
		}
		go ag.Run()
		defer ag.Close()
	}

	all := [][]string{topo.Agents}
	mgr, err := manager.New(rig.Root, pl, manager.Options{
		StepTimeout: 5 * time.Second,
		Journal:     journal.NewMem(),
		ResetPhases: func(action.Action, []string) [][]string { return all },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Execute(source, target)
	if err != nil {
		t.Fatalf("execute: %v (%+v)", err, res)
	}
	if !res.Completed || len(res.Steps) != 5 {
		t.Fatalf("result: %+v", res)
	}

	snap := tel.Snapshot()
	if snap.Counters["fleet.acks.aggregated"] == 0 {
		t.Fatal("no acks were aggregated — the plane degenerated to forwarding")
	}
	if snap.Counters["transport.tcp.unattributed_drops"] != 0 {
		t.Fatalf("unattributed frames: %d", snap.Counters["transport.tcp.unattributed_drops"])
	}
}
