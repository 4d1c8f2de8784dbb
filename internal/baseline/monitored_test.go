package baseline

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/adapters"
	"repro/internal/agent"
	"repro/internal/manager"
	"repro/internal/metasocket"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/video"
)

// TestMonitorDerivedSafeStates exercises the paper's future-work
// extension (Sec. 7): client safe states are not hand-coded but derived
// from the temporal specification "after frame-begin expect frame-end" —
// the adaptation may only block a client when no frame is split. The
// full MAP still executes with zero corruption, and additionally no
// frame's fragments ever straddle an adaptation step.
func TestMonitorDerivedSafeStates(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := video.NewSystem(video.SystemOptions{
		Seed:     31,
		Handheld: netsim.LinkProfile{Latency: 3 * time.Millisecond},
		Laptop:   netsim.LinkProfile{Latency: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Replace the clients' default drain-based processes with
	// monitor-derived ones.
	factory := video.FilterFactory()
	hhMon := adapters.MonitorFrames(sys.Handheld.Socket())
	lpMon := adapters.MonitorFrames(sys.Laptop.Socket())
	// The chain each fragment met (the monitor holds the delivery
	// observer; a fragment's arrival is under the same chain, which only
	// changes between datagrams).
	hhChains := recordChainPerFrame(sys.Handheld.Socket())
	lpChains := recordChainPerFrame(sys.Laptop.Socket())
	procs := map[string]agent.LocalProcess{
		paper.ProcessServer:   adapters.NewSendProcess(paper.ProcessServer, sys.Server.Socket(), factory),
		paper.ProcessHandheld: adapters.NewMonitoredRecvProcess(paper.ProcessHandheld, sys.Handheld.Socket(), factory, hhMon),
		paper.ProcessLaptop:   adapters.NewMonitoredRecvProcess(paper.ProcessLaptop, sys.Laptop.Socket(), factory, lpMon),
	}

	bus := transport.NewBus()
	defer func() { _ = bus.Close() }()
	mgrEP, err := bus.Endpoint(protocol.ManagerName)
	if err != nil {
		t.Fatal(err)
	}
	processOf := func(c string) string {
		p, _ := scenario.Registry.ProcessOf(c)
		return p
	}
	var agents []*agent.Agent
	for name, proc := range procs {
		ep, err := bus.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agent.New(name, ep, proc, agent.Options{
			ResetTimeout: 2 * time.Second,
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
		// 2 KiB frames fragment into 9 packets each, so frame-splitting
		// is a real possibility the monitor must exclude.
		streamErr <- sys.Server.Stream(context.Background(), 120, 2048, 300*time.Microsecond)
	}()
	for sys.Server.FramesSent() < 40 {
		time.Sleep(time.Millisecond)
	}

	res, err := mgr.Execute(scenario.Source, scenario.Target)
	if err != nil || !res.Completed {
		t.Fatalf("execute: %v %+v", err, res)
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

	if hh.FramesOK != 120 || lp.FramesOK != 120 {
		t.Errorf("frames OK: handheld %d laptop %d", hh.FramesOK, lp.FramesOK)
	}
	if hh.FramesCorrupted+hh.PacketsUndecoded+lp.FramesCorrupted+lp.PacketsUndecoded != 0 {
		t.Errorf("corruption with monitor-derived safe states: %+v %+v", hh, lp)
	}
	for name, chains := range map[string]*chainPerFrame{"handheld": hhChains, "laptop": lpChains} {
		if len(chains.split) != 0 {
			t.Errorf("%s: frames split across an adaptation step: %v", name, chains.split)
		}
		if len(chains.seen) < 2 {
			t.Errorf("%s: frames met %d distinct chains; the MAP should have recomposed this client mid-stream", name, len(chains.seen))
		}
	}
	if hhMon.Observed() == 0 || lpMon.Observed() == 0 {
		t.Error("monitors observed no events; wiring broken")
	}
	if !hhMon.Safe() || !lpMon.Safe() {
		t.Errorf("monitors end unsafe: handheld %v laptop %v", hhMon.Obligations(), lpMon.Obligations())
	}
}

// chainPerFrame is what recordChainPerFrame collects, on the socket's
// delivery goroutine: read it after the socket has stopped.
type chainPerFrame struct {
	of    map[uint32]string // frame → the chain its first fragment met
	seen  map[string]bool
	split []string // frames whose fragments met two chains
}

// recordChainPerFrame notes the receiver's filter names as each fragment
// arrives; a frame whose fragments saw two different chains straddled an
// adaptation step.
func recordChainPerFrame(sock *metasocket.RecvSocket) *chainPerFrame {
	c := &chainPerFrame{of: make(map[uint32]string), seen: make(map[string]bool)}
	sock.SetArrivalObserver(func(p metasocket.Packet) {
		chain := strings.Join(sock.Filters(), ",")
		c.seen[chain] = true
		if first, ok := c.of[p.Frame]; !ok {
			c.of[p.Frame] = chain
		} else if first != chain {
			c.split = append(c.split, fmt.Sprintf("frame %d: %s then %s", p.Frame, first, chain))
		}
	})
	return c
}
