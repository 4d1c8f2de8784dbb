package rtnet_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/adapters"
	"repro/internal/agent"
	"repro/internal/manager"
	"repro/internal/metasocket"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/rtnet"
	"repro/internal/transport"
	"repro/internal/video"
)

// pausingSender blocks the server in every step it takes part in, as
// cmd/videonode's does: a receiver over real UDP drains by waiting for its
// socket to fall quiet, which a streaming sender never lets it.
type pausingSender struct {
	*adapters.SocketProcess
	sock *metasocket.SendSocket
}

func (p pausingSender) Reset(ctx context.Context, step protocol.Step) error {
	if err := p.SocketProcess.Reset(ctx, step); err != nil {
		return err
	}
	return p.sock.RequestBlock(ctx)
}

// TestRealNetworkEndToEnd runs the complete case study on real sockets:
// the video stream flows over UDP (rtnet) from the server's MetaSocket to
// both clients, the adaptation manager talks to the agents over TCP
// (transport), and the DES-64 → DES-128 hardening executes along the MAP
// while frames stream — with zero corruption. This is the paper's full
// deployment shape with no simulated component in the path.
func TestRealNetworkEndToEnd(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	factory := video.FilterFactory()

	// Data plane: two UDP receivers, one fan-out transmitter.
	hhRecv, err := rtnet.NewReceiver("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hhRecv.Close() }()
	lpRecv, err := rtnet.NewReceiver("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lpRecv.Close() }()
	tx, err := rtnet.NewTransmitter(hhRecv.Addr(), lpRecv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()

	// Application: server + two clients wired over the UDP plane.
	e1, err := factory("E1")
	if err != nil {
		t.Fatal(err)
	}
	sendSock, err := metasocket.NewSendSocket(tx.Send, e1)
	if err != nil {
		t.Fatal(err)
	}
	server, err := video.NewServer(sendSock, 256)
	if err != nil {
		t.Fatal(err)
	}
	buildClient := func(name string, recv *rtnet.Receiver, decoder string) (*video.Client, error) {
		d, err := factory(decoder)
		if err != nil {
			return nil, err
		}
		client, err := video.BuildClient(name, d)
		if err != nil {
			return nil, err
		}
		client.Socket().AttachLink(recv)
		if err := client.Socket().Start(recv.Recv()); err != nil {
			return nil, err
		}
		return client, nil
	}
	handheld, err := buildClient(paper.ProcessHandheld, hhRecv, "D1")
	if err != nil {
		t.Fatal(err)
	}
	laptop, err := buildClient(paper.ProcessLaptop, lpRecv, "D4")
	if err != nil {
		t.Fatal(err)
	}

	// Control plane: TCP manager, TCP agents.
	mgrEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgrEP.Close() }()
	processOf := func(c string) string {
		p, _ := scenario.Registry.ProcessOf(c)
		return p
	}
	procs := map[string]agent.LocalProcess{
		paper.ProcessServer:   pausingSender{adapters.NewSendProcess(paper.ProcessServer, sendSock, factory), sendSock},
		paper.ProcessHandheld: adapters.NewRecvProcess(paper.ProcessHandheld, handheld.Socket(), factory),
		paper.ProcessLaptop:   adapters.NewRecvProcess(paper.ProcessLaptop, laptop.Socket(), factory),
	}
	var agents []*agent.Agent
	for name, proc := range procs {
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

	// Stream over real UDP; adapt mid-stream.
	const frames = 150
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- server.Stream(context.Background(), frames, 1024, 400*time.Microsecond)
	}()
	for server.FramesSent() < 50 {
		time.Sleep(time.Millisecond)
	}

	res, err := mgr.Execute(scenario.Source, scenario.Target)
	if err != nil || !res.Completed {
		t.Fatalf("adapt over real network: %v %+v", err, res)
	}
	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}

	// Drain: everything the receivers read has been processed and the UDP
	// sockets have been quiet for rtnet's window.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	for _, c := range []*video.Client{handheld, laptop} {
		if err := c.Socket().WaitDrained(drainCtx); err != nil {
			t.Fatal(err)
		}
	}

	hh := handheld.Player().Finalize()
	lp := laptop.Player().Finalize()
	if hh.FramesCorrupted+hh.PacketsUndecoded+lp.FramesCorrupted+lp.PacketsUndecoded != 0 {
		t.Errorf("corruption over real UDP: handheld %+v laptop %+v", hh, lp)
	}
	// Loopback UDP is reliable in practice; require full delivery but
	// tolerate nothing else.
	if hh.FramesOK != frames || lp.FramesOK != frames {
		t.Errorf("frames OK: handheld %d laptop %d, want %d", hh.FramesOK, lp.FramesOK, frames)
	}
	if got := sendSock.Filters(); got[0] != "E2" {
		t.Errorf("server chain = %v", got)
	}
	if got := handheld.Socket().Filters(); got[0] != "D3" {
		t.Errorf("handheld chain = %v", got)
	}
	if got := laptop.Socket().Filters(); got[0] != "D5" {
		t.Errorf("laptop chain = %v", got)
	}
	sendSock.Close()
}
