package main

import (
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/baseline"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/video"
)

// tcpRig is the deployed shape of the paper's case study wired up and
// ready: the video system streaming over netsim, the manager on a real
// TCP listener, and one agent per process dialed in over TCP.
type tcpRig struct {
	scenario *paper.Scenario
	plan     *planner.Planner
	sys      *video.System
	mgr      *manager.Manager
	cleanup  func()
}

// wireTCP builds the rig. The caller must invoke cleanup (idempotent is
// not required; call exactly once) after the system is closed.
func wireTCP(opts baseline.ExperimentOptions, tel *telemetry.Registry, logf func(string, ...any)) (*tcpRig, error) {
	scenario, err := paper.NewScenario()
	if err != nil {
		return nil, err
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		return nil, err
	}
	plan.SetTelemetry(tel)

	sys, err := video.NewSystem(video.SystemOptions{
		Seed:      opts.Seed,
		Handheld:  opts.Handheld,
		Laptop:    opts.Laptop,
		Telemetry: tel,
	})
	if err != nil {
		return nil, err
	}

	// Manager endpoint on a real TCP listener.
	mgrEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mgrEP.SetTelemetry(tel)
	fmt.Printf("adaptation manager listening on %s\n", mgrEP.Addr())

	// Agents dial in over TCP.
	processOf := func(c string) string {
		p, perr := scenario.Registry.ProcessOf(c)
		if perr != nil {
			return ""
		}
		return p
	}
	var agents []*agent.Agent
	cleanup := func() {
		for _, ag := range agents {
			ag.Close()
		}
		_ = mgrEP.Close()
	}
	for name, proc := range sys.Processes() {
		ep, err := transport.DialReconnectingTCP(name, transport.NewAddrRing(mgrEP.Addr()).Next, 0)
		if err != nil {
			cleanup()
			return nil, err
		}
		ep.SetTelemetry(tel)
		ag, err := agent.New(name, ep, proc, agent.Options{
			ResetTimeout: 5 * time.Second,
			ProcessOf:    processOf,
			Telemetry:    tel,
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		agents = append(agents, ag)
		go ag.Run()
		fmt.Printf("agent %-9s connected\n", name)
	}
	if err := mgrEP.WaitForAgents(5*time.Second, paper.ProcessServer, paper.ProcessHandheld, paper.ProcessLaptop); err != nil {
		cleanup()
		return nil, err
	}

	mgr, err := manager.New(mgrEP, plan, manager.Options{
		StepTimeout: 5 * time.Second,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
		Logf:      logf,
		Telemetry: tel,
	})
	if err != nil {
		cleanup()
		return nil, err
	}
	return &tcpRig{scenario: scenario, plan: plan, sys: sys, mgr: mgr, cleanup: cleanup}, nil
}
