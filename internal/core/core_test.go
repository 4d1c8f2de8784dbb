package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/video"
)

type countingProc struct {
	mu       sync.Mutex
	inAction int
}

func (p *countingProc) PreAction(protocol.Step, []action.Op) error { return nil }
func (p *countingProc) Reset(context.Context, protocol.Step) error { return nil }
func (p *countingProc) InAction(protocol.Step, []action.Op) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inAction++
	return nil
}
func (p *countingProc) Resume(protocol.Step) error                      { return nil }
func (p *countingProc) PostAction(protocol.Step, []action.Op) error     { return nil }
func (p *countingProc) Rollback(protocol.Step, []action.Op, bool) error { return nil }

func paperProcs() map[string]agent.LocalProcess {
	return map[string]agent.LocalProcess{
		paper.ProcessServer:   &countingProc{},
		paper.ProcessHandheld: &countingProc{},
		paper.ProcessLaptop:   &countingProc{},
	}
}

func TestDeploymentAdapt(t *testing.T) {
	scenario := paper.MustScenario()
	dep, err := core.NewDeployment(scenario.Invariants, scenario.Actions, paperProcs(), core.Options{
		StepTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if got := len(dep.SafeConfigs()); got != 8 {
		t.Errorf("safe configs = %d", got)
	}
	path, err := dep.Plan(scenario.Source, scenario.Target)
	if err != nil || len(path.Steps) != 5 {
		t.Fatalf("plan: %v %v", path, err)
	}
	res, err := dep.Adapt(scenario.Source, scenario.Target)
	if err != nil || !res.Completed {
		t.Fatalf("adapt: %v %+v", err, res)
	}
	if dep.Manager().State() != manager.StateRunning {
		t.Errorf("manager state = %v", dep.Manager().State())
	}
	if _, err := dep.Agent(paper.ProcessServer); err != nil {
		t.Error(err)
	}
	if _, err := dep.Agent("missing"); err == nil {
		t.Error("unknown agent should fail")
	}
}

func TestDeploymentValidation(t *testing.T) {
	scenario := paper.MustScenario()
	// Missing a process.
	procs := paperProcs()
	delete(procs, paper.ProcessLaptop)
	if _, err := core.NewDeployment(scenario.Invariants, scenario.Actions, procs, core.Options{}); err == nil {
		t.Error("missing process should fail")
	}
	// Invalid actions.
	bad := []action.Action{{ID: "bad"}}
	if _, err := core.NewDeployment(scenario.Invariants, bad, paperProcs(), core.Options{}); err == nil {
		t.Error("invalid action should fail")
	}
}

// TestDeploymentOverTCPWithVideo is the full integration path in one
// test: real TCP manager↔agent connections, live video traffic, the MAP
// executed safely.
func TestDeploymentOverTCPWithVideo(t *testing.T) {
	scenario := paper.MustScenario()
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := video.NewSystem(video.SystemOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	mgrEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgrEP.Close() }()

	processOf := func(c string) string {
		p, _ := scenario.Registry.ProcessOf(c)
		return p
	}
	var agents []*agent.Agent
	for name, proc := range sys.Processes() {
		ep, err := transport.DialReconnectingTCP(name, transport.NewAddrRing(mgrEP.Addr()).Next, 0)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agent.New(name, ep, proc, agent.Options{
			ResetTimeout: 5 * time.Second,
			ProcessOf:    processOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, ag)
		go ag.Run()
	}
	defer func() {
		for _, ag := range agents {
			ag.Close()
		}
	}()
	if err := mgrEP.WaitForAgents(5*time.Second,
		paper.ProcessServer, paper.ProcessHandheld, paper.ProcessLaptop); err != nil {
		t.Fatal(err)
	}

	mgr, err := manager.New(mgrEP, plan, manager.Options{
		StepTimeout: 5 * time.Second,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	streamErr := make(chan error, 1)
	go func() {
		streamErr <- sys.Server.Stream(context.Background(), 120, 1024, 300*time.Microsecond)
	}()
	for sys.Server.FramesSent() < 40 {
		time.Sleep(time.Millisecond)
	}

	res, err := mgr.Execute(scenario.Source, scenario.Target)
	if err != nil || !res.Completed {
		t.Fatalf("execute over TCP: %v %+v", err, res)
	}

	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	hh := sys.Handheld.Player().Finalize()
	lp := sys.Laptop.Player().Finalize()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if hh.FramesCorrupted+hh.PacketsUndecoded+lp.FramesCorrupted+lp.PacketsUndecoded != 0 {
		t.Errorf("corruption over TCP: handheld %+v laptop %+v", hh, lp)
	}
	if hh.FramesOK != 120 || lp.FramesOK != 120 {
		t.Errorf("frames OK: handheld %d laptop %d, want 120", hh.FramesOK, lp.FramesOK)
	}
	cfg := sys.ConfigurationOf()
	if cfg[paper.ProcessServer][0] != "E2" || cfg[paper.ProcessHandheld][0] != "D3" || cfg[paper.ProcessLaptop][0] != "D5" {
		t.Errorf("final chains = %v", cfg)
	}
}
