package main

import (
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/telemetry"
)

// runFleet is the fleet-scale shape of the demo: instead of three video
// processes, a whole fleet of agents hangs under a hierarchical control
// plane — manager → coordinator tree → agents, every hop a multiplexed
// TCP connection on loopback. The same 5-step adaptation the fleet
// simulator measures is executed for real: batched wave fan-out on the
// way down, aggregated acks on the way up, epoch fencing and journaling
// live. Afterwards the deterministic simulator replays the identical
// scenario flat and hierarchical to show the latency curve the tree buys
// once the fleet outgrows a single egress port.
func runFleet(agents, fanout int) error {
	if agents < 2 {
		return fmt.Errorf("-fleet-agents must be at least 2 (got %d)", agents)
	}
	if fanout < 2 {
		return fmt.Errorf("-fleet-fanout must be at least 2 (got %d)", fanout)
	}
	names := make([]string, agents)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
	}
	topo, err := fleet.NewTopology(names, fanout)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d agents under %d coordinators, tree depth %d (fan-out %d)\n",
		len(topo.Agents), len(topo.Coords), topo.Depth()+1, fanout)

	tel := telemetry.NewRegistry()
	rig, err := fleet.NewRig(topo, fleet.RigOptions{Telemetry: tel})
	if err != nil {
		return err
	}
	defer rig.Close()
	fmt.Printf("plane up on loopback TCP: root hub %s, %d mux links attached\n",
		rig.Root.Addr(), len(topo.Agents)+len(topo.Coords))

	reg, pl, source, target, err := fleet.DemoScenario()
	if err != nil {
		return err
	}
	for _, name := range topo.Agents {
		ag, aerr := agent.New(name, rig.AgentEndpoint(name), fleet.NopProcess{}, agent.Options{
			ProcessOf: fleet.DemoProcessOf(reg),
			Telemetry: tel,
		})
		if aerr != nil {
			return aerr
		}
		go ag.Run()
		defer ag.Close()
	}

	// Conscript the whole fleet into every step: each wave must cross the
	// entire tree, which is the coordination pattern being demonstrated.
	all := [][]string{topo.Agents}
	mgr, err := manager.New(rig.Root, pl, manager.Options{
		StepTimeout: 10 * time.Second,
		Journal:     journal.NewMem(),
		ResetPhases: func(action.Action, []string) [][]string { return all },
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nexecuting the 5-step fleet adaptation (every step spans all %d agents)...\n", agents)
	start := time.Now()
	res, err := mgr.Execute(source, target)
	if err != nil {
		return err
	}
	fmt.Printf("adaptation %s in %v over TCP:\n", outcome(res), time.Since(start).Round(time.Millisecond))
	for _, sr := range res.Steps {
		fmt.Printf("  step %-4s %s -> %s  outcome=%-11s blocked=%v\n",
			sr.ActionID, sr.From, sr.To, sr.Outcome, sr.BlockedFor.Round(100*time.Microsecond))
	}
	snap := tel.Snapshot()
	fmt.Printf("aggregated acks: %d  forwarded acks: %d  unattributed mux drops: %d\n",
		snap.Counters["fleet.acks.aggregated"],
		snap.Counters["fleet.acks.forwarded"],
		snap.Counters["transport.tcp.unattributed_drops"])

	// The flat-versus-hierarchical curve on the deterministic simulator:
	// identical scenario, identical seed, only the plane shape differs.
	fmt.Printf("\nsimulated wave latency at this fleet size (seed 1, virtual time):\n")
	fmt.Printf("  %-12s %12s %12s %12s\n", "plane", "p50", "p99", "root frames")
	flat, err := fleet.RunSim(fleet.SimConfig{Agents: agents, Seed: 1})
	if err != nil {
		return err
	}
	hier, err := fleet.RunSim(fleet.SimConfig{Agents: agents, Fanout: fanout, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %12v %12v %12d\n", "flat", flat.P50, flat.P99, flat.RootFrames)
	fmt.Printf("  %-12s %12v %12v %12d\n",
		fmt.Sprintf("tree f=%d", fanout), hier.P50, hier.P99, hier.RootFrames)
	if hier.P99 > 0 {
		fmt.Printf("  p99 ratio flat/tree: %.2fx (the gap grows with fleet size; see BENCH_adapt.json)\n",
			float64(flat.P99)/float64(hier.P99))
	}
	return nil
}
