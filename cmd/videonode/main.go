// Command videonode runs ONE node of the case study as its own OS
// process, so the paper's deployment can be spread across real process
// boundaries: a manager process, a video-server process, and one process
// per client, with the stream on UDP and the coordination protocol on
// TCP. TestDeploymentOverTCPWithVideo (internal/core) runs everything in
// one process; this binary is the fully distributed variant (see the
// integration test in this package, which spawns all four).
//
// Roles:
//
//	videonode -role manager -listen 127.0.0.1:0
//	    Prints "MANAGER_ADDR=<addr>", waits for the three agents, plans
//	    and executes the DES-64 → DES-128 hardening, prints
//	    "RESULT completed=<bool> steps=<n>", and exits.
//
//	videonode -role handheld|laptop -manager <addr> -duration 3s
//	    Prints "DATA_ADDR=<udp addr>", receives and decodes the stream,
//	    serves its adaptation agent, and at the end prints
//	    "STATS ok=<n> corrupted=<n> incomplete=<n> leaked=<n>".
//
//	videonode -role server -manager <addr> -peers <udp1,udp2> -frames N
//	    Streams N frames over UDP to the peers while serving its agent,
//	    then prints "SENT frames=<n>" and exits.
//
// Every role accepts -metrics <addr>: the node then prints
// "METRICS_ADDR=<addr>" and serves its telemetry registry there —
// /metrics (JSON counters, gauges, latency histograms; ?format=prometheus
// for text exposition) and /debug/adaptation (recent spans and events;
// ?tree=1 for text).
//
// Every role also accepts -flightrec <dir> (or the SAFEADAPT_FLIGHTREC_DIR
// environment variable): the node then keeps a black-box flight recorder
// and dumps <dir>/<role>.flightrec.json on rollback, failure, panic, or
// clean shutdown. Merge the per-node bundles with
// `safeadaptctl postmortem -dir <dir>`.
//
// Every role also accepts -ftdc <dir> (or the SAFEADAPT_FTDC_DIR
// environment variable): the node then runs an always-on FTDC capture,
// sampling its whole telemetry registry to <dir>/<role>.ftdc at
// -ftdc-interval (default 1s). The capture is flushed and fsynced at
// every flight-recorder auto-dump — rollback, failure, panic, shutdown —
// so the file is current at exactly the moments that matter. Inspect it
// with `safeadaptctl ftdc summary <file>`; `safeadaptctl postmortem`
// splices captures found next to the bundles into its timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/action"
	"repro/internal/adapters"
	"repro/internal/agent"
	"repro/internal/ftdc"
	"repro/internal/manager"
	"repro/internal/metasocket"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/rtnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/video"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "videonode:", err)
		os.Exit(1)
	}
}

func run() error {
	role := flag.String("role", "", "manager | server | handheld | laptop")
	listen := flag.String("listen", "127.0.0.1:0", "manager TCP listen address")
	managerAddr := flag.String("manager", "", "manager TCP address, or comma-separated leader,standby,... candidates (agents)")
	peers := flag.String("peers", "", "comma-separated client UDP addresses (server)")
	frames := flag.Int("frames", 200, "frames to stream (server)")
	duration := flag.Duration("duration", 3*time.Second, "how long to serve (clients)")
	adaptAfter := flag.Int("adapt-after", 0, "frames before the manager adapts (manager; 0 = immediately after agents connect)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/adaptation on this address (empty = disabled)")
	flightDir := flag.String("flightrec", "", "dump flight-recorder bundles to this directory (empty = $SAFEADAPT_FLIGHTREC_DIR, unset = disabled)")
	ftdcDir := flag.String("ftdc", "", "write an always-on FTDC metrics capture to <dir>/<role>.ftdc (empty = $SAFEADAPT_FTDC_DIR, unset = disabled)")
	ftdcInterval := flag.Duration("ftdc-interval", time.Second, "FTDC sampling period")
	flag.Parse()

	tel, err := serveMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	tel, fr := armFlightRecorder(tel, *role, *flightDir)
	tel, fr, capt, err := armCapture(tel, fr, *role, *ftdcDir, *ftdcInterval)
	if err != nil {
		return err
	}
	if capt != nil {
		defer func() { _ = capt.Close() }()
	}
	defer fr.DumpOnPanic()

	switch *role {
	case "manager":
		err = runManager(*listen, *adaptAfter, tel)
	case "server":
		err = runServer(*managerAddr, *peers, *frames, tel)
	case "handheld", "laptop":
		err = runClient(*role, *managerAddr, *duration, tel)
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
	if err == nil {
		// Clean exit: dump anyway so a post-mortem can include the nodes
		// that did NOT fail. Failure paths already dumped with a more
		// specific reason inside the protocol layer.
		fr.AutoDump("shutdown")
	}
	return err
}

// armFlightRecorder attaches a black-box recorder dumping to dir (flag, or
// the SAFEADAPT_FLIGHTREC_DIR environment variable). Recording requires a
// registry — one is created if -metrics did not already.
func armFlightRecorder(tel *telemetry.Registry, role, dir string) (*telemetry.Registry, *telemetry.FlightRecorder) {
	if dir == "" {
		dir = os.Getenv("SAFEADAPT_FLIGHTREC_DIR")
	}
	if dir == "" {
		return tel, nil
	}
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	tel.SetNode(role)
	fr := telemetry.NewFlightRecorder(role, 0)
	fr.SetDumpDir(dir)
	tel.AttachFlight(fr)
	return tel, fr
}

// armCapture starts the always-on FTDC capture writing to
// <dir>/<role>.ftdc (flag, or the SAFEADAPT_FTDC_DIR environment
// variable). Capturing requires a registry — one is created if neither
// -metrics nor -flightrec already did — and a flight recorder, because
// AutoDump is the hook that finalizes the capture at rollback, failure,
// panic and shutdown: when -flightrec is not armed, a dumpless recorder
// is attached just so those hooks fire.
func armCapture(tel *telemetry.Registry, fr *telemetry.FlightRecorder, role, dir string, interval time.Duration) (*telemetry.Registry, *telemetry.FlightRecorder, *ftdc.Capturer, error) {
	if dir == "" {
		dir = os.Getenv("SAFEADAPT_FTDC_DIR")
	}
	if dir == "" {
		return tel, fr, nil, nil
	}
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	if tel.Node() == "" {
		tel.SetNode(role)
	}
	if fr == nil {
		fr = telemetry.NewFlightRecorder(role, 0)
		tel.AttachFlight(fr)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return tel, fr, nil, err
	}
	capt, err := ftdc.StartCapture(tel, filepath.Join(dir, role+".ftdc"), ftdc.CaptureOptions{Interval: interval})
	if err != nil {
		return tel, fr, nil, err
	}
	return tel, fr, capt, nil
}

// serveMetrics starts the observability HTTP endpoint when addr is
// non-empty and returns the registry to instrument the node with. A nil
// registry (metrics disabled) makes every instrumentation site a no-op.
func serveMetrics(addr string) (*telemetry.Registry, error) {
	if addr == "" {
		return nil, nil
	}
	tel := telemetry.NewRegistry()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("METRICS_ADDR=%s\n", ln.Addr())
	go func() { _ = http.Serve(ln, tel.Handler()) }()
	return tel, nil
}

// scenario is the case study, compiled once for every role.
var scenario = paper.MustScenario()

func processOf(c string) string {
	p, _ := scenario.Registry.ProcessOf(c)
	return p
}

func runManager(listen string, adaptAfter int, tel *telemetry.Registry) error {
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		return err
	}
	plan.SetTelemetry(tel)
	ep, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	ep.SetTelemetry(tel)
	defer func() { _ = ep.Close() }()
	fmt.Printf("MANAGER_ADDR=%s\n", ep.Addr())

	if err := ep.WaitForAgents(30*time.Second,
		paper.ProcessServer, paper.ProcessHandheld, paper.ProcessLaptop); err != nil {
		return err
	}
	// Give the stream a head start so the adaptation happens mid-flight.
	time.Sleep(300 * time.Millisecond)
	_ = adaptAfter // the head-start delay stands in for a frame count

	mgr, err := manager.New(ep, plan, manager.Options{
		StepTimeout: 10 * time.Second,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
		Telemetry: tel,
	})
	if err != nil {
		return err
	}
	res, err := mgr.Execute(scenario.Source, scenario.Target)
	if err != nil {
		return err
	}
	fmt.Printf("RESULT completed=%v steps=%d\n", res.Completed, len(res.Steps))
	return nil
}

// pausingSender blocks the server in every step it takes part in, also
// the ones that change nothing on it and would let it stream on. A kernel
// cannot say what it still holds, so a receiver over real UDP drains by
// waiting for its socket to fall quiet (rtnet.Receiver.Owed), and a socket
// the sender keeps writing to never does.
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

func runServer(managerAddr, peerList string, frames int, tel *telemetry.Registry) error {
	if managerAddr == "" || peerList == "" {
		return fmt.Errorf("server needs -manager and -peers")
	}
	peers := strings.Split(peerList, ",")
	tx, err := rtnet.NewTransmitter(peers...)
	if err != nil {
		return err
	}
	defer func() { _ = tx.Close() }()

	factory := video.FilterFactory()
	e1, err := factory("E1")
	if err != nil {
		return err
	}
	sendSock, err := metasocket.NewSendSocket(tx.Send, e1)
	if err != nil {
		return err
	}
	sendSock.SetTelemetry(tel)
	server, err := video.NewServer(sendSock, 256)
	if err != nil {
		return err
	}

	ag, closeAgent, err := startAgent(paper.ProcessServer, managerAddr,
		pausingSender{adapters.NewSendProcess(paper.ProcessServer, sendSock, factory), sendSock}, tel)
	if err != nil {
		return err
	}
	defer closeAgent()
	_ = ag

	if err := server.Stream(context.Background(), frames, 1024, 500*time.Microsecond); err != nil {
		return err
	}
	// Linger so late protocol messages (post-stream steps) are served.
	time.Sleep(500 * time.Millisecond)
	fmt.Printf("SENT frames=%d\n", server.FramesSent())
	sendSock.Close()
	return nil
}

func runClient(role, managerAddr string, duration time.Duration, tel *telemetry.Registry) error {
	if managerAddr == "" {
		return fmt.Errorf("client needs -manager")
	}
	recv, err := rtnet.NewReceiver("127.0.0.1:0", 8192)
	if err != nil {
		return err
	}
	fmt.Printf("DATA_ADDR=%s\n", recv.Addr())

	factory := video.FilterFactory()
	initial := map[string]string{paper.ProcessHandheld: "D1", paper.ProcessLaptop: "D4"}[role]
	dec, err := factory(initial)
	if err != nil {
		return err
	}
	client, err := video.BuildClient(role, dec)
	if err != nil {
		return err
	}
	client.Socket().AttachLink(recv)
	client.Socket().SetTelemetry(tel)
	if err := client.Socket().Start(recv.Recv()); err != nil {
		return err
	}

	_, closeAgent, err := startAgent(role, managerAddr,
		adapters.NewRecvProcess(role, client.Socket(), factory), tel)
	if err != nil {
		return err
	}
	defer closeAgent()

	time.Sleep(duration)
	_ = recv.Close()
	client.Socket().Wait()
	stats := client.Player().Finalize()
	fmt.Printf("STATS ok=%d corrupted=%d incomplete=%d leaked=%d chain=%s\n",
		stats.FramesOK, stats.FramesCorrupted, stats.FramesIncomplete,
		stats.PacketsUndecoded, strings.Join(client.Socket().Filters(), "+"))
	return nil
}

// startAgent dials the manager and runs the adaptation agent in the
// background, returning a closer. -manager may list several
// comma-separated candidate addresses (the leader first, hot standbys
// after); the agent keeps a reconnecting session that rotates through
// the ring on every redial, so it chases a promoted standby without any
// out-of-band announcement.
func startAgent(name, managerAddr string, proc agent.LocalProcess, tel *telemetry.Registry) (*agent.Agent, func(), error) {
	ring := transport.NewAddrRing(strings.Split(managerAddr, ",")...)
	ep, err := transport.DialReconnectingTCP(name, ring.Next, 250*time.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	ep.SetTelemetry(tel)
	ag, err := agent.New(name, ep, proc, agent.Options{
		ResetTimeout: 10 * time.Second,
		ProcessOf:    processOf,
		Telemetry:    tel,
	})
	if err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	go ag.Run()
	return ag, func() {
		ag.Close()
		_ = ep.Close()
	}, nil
}
