package video

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adapters"
	"repro/internal/cipherkit"
	"repro/internal/metasocket"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/telemetry"
)

// SystemOptions configures the Fig. 3 system.
type SystemOptions struct {
	// Seed drives the network simulator's PRNG.
	Seed int64
	// Handheld and Laptop are the clients' link profiles (the paper's
	// iPAQ on a weak wireless link and Toughbook on a better one).
	Handheld netsim.LinkProfile
	Laptop   netsim.LinkProfile
	// FragSize is the packetization granularity. Zero means 256.
	FragSize int
	// Telemetry, when non-nil, instruments the multicast group and all
	// three MetaSockets (datagram counters, in-flight gauge, blocking
	// latency during filter swaps).
	Telemetry *telemetry.Registry
}

// System is the running video multicast application of Fig. 3: a server
// with a sending MetaSocket, and handheld + laptop clients with receiving
// MetaSockets, all over a simulated multicast group.
type System struct {
	Group    *netsim.Group
	Server   *Server
	Handheld *Client
	Laptop   *Client

	HandheldSub *netsim.Subscription
	LaptopSub   *netsim.Subscription
}

// declared is the case study, compiled once: its codec tags name the
// filters FilterFactory builds and its dataflow orders SenderFirstPhases.
var declared = paper.MustScenario()

// FilterFactory returns the case study's component factory, read from the
// declaration: each encoder component maps to an encoder with the cipher
// its tag names, each decoder to a decoder with the ciphers its tags name,
// built over the demo keys. The factory is shared by the server and both
// clients.
func FilterFactory() adapters.FilterFactory {
	ciphers := make(map[string]*cipherkit.Cipher, 2)
	for _, c := range []*cipherkit.Cipher{cipherkit.MustDefault64(), cipherkit.MustDefault128()} {
		ciphers[c.Name()] = c
	}
	decoders := make(map[string][]*cipherkit.Cipher, len(declared.Decodes))
	for name, tags := range declared.Decodes {
		for _, tag := range tags {
			decoders[name] = append(decoders[name], ciphers[tag])
		}
	}
	return func(name string) (metasocket.Filter, error) {
		if tag, ok := declared.Encodes[name]; ok {
			return metasocket.NewEncoder(name, ciphers[tag]), nil
		}
		if cs, ok := decoders[name]; ok {
			return metasocket.NewDecoder(name, cs...), nil
		}
		return nil, fmt.Errorf("video: unknown component %q", name)
	}
}

// NewSystem builds and starts the Fig. 3 system in its source
// configuration (D4, D1, E1): the server encodes with DES-64, the
// handheld decodes with D1 and the laptop with D4.
func NewSystem(opts SystemOptions) (*System, error) {
	if opts.FragSize == 0 {
		opts.FragSize = 256
	}
	factory := FilterFactory()
	group := netsim.NewGroup(opts.Seed)
	group.SetTelemetry(opts.Telemetry)

	// linkBuffer is how many delivered datagrams a link holds for a client
	// that has fallen behind before it drops them, as a congested link
	// would: some 110 ms of a 2,000 frames/s stream of 9-fragment frames,
	// enough to ride out a garbage-collection or scheduler stall.
	const linkBuffer = 2048
	hhSub, err := group.Subscribe(paper.ProcessHandheld, opts.Handheld, linkBuffer)
	if err != nil {
		return nil, err
	}
	lpSub, err := group.Subscribe(paper.ProcessLaptop, opts.Laptop, linkBuffer)
	if err != nil {
		return nil, err
	}

	e1, err := factory("E1")
	if err != nil {
		return nil, err
	}
	sendSock, err := metasocket.NewSendSocket(func(d []byte) error { return group.Send(d) }, e1)
	if err != nil {
		return nil, err
	}
	server, err := NewServer(sendSock, opts.FragSize)
	if err != nil {
		return nil, err
	}

	d1, err := factory("D1")
	if err != nil {
		return nil, err
	}
	handheld, err := BuildClient(paper.ProcessHandheld, d1)
	if err != nil {
		return nil, err
	}
	d4, err := factory("D4")
	if err != nil {
		return nil, err
	}
	laptop, err := BuildClient(paper.ProcessLaptop, d4)
	if err != nil {
		return nil, err
	}

	handheld.Socket().AttachLink(hhSub)
	laptop.Socket().AttachLink(lpSub)
	sendSock.SetTelemetry(opts.Telemetry)
	handheld.Socket().SetTelemetry(opts.Telemetry)
	laptop.Socket().SetTelemetry(opts.Telemetry)

	if err := handheld.Socket().Start(hhSub.Recv()); err != nil {
		return nil, err
	}
	if err := laptop.Socket().Start(lpSub.Recv()); err != nil {
		return nil, err
	}
	return &System{
		Group:       group,
		Server:      server,
		Handheld:    handheld,
		Laptop:      laptop,
		HandheldSub: hhSub,
		LaptopSub:   lpSub,
	}, nil
}

// Client returns the client running on the named process.
func (s *System) Client(process string) (*Client, error) {
	switch process {
	case paper.ProcessHandheld:
		return s.Handheld, nil
	case paper.ProcessLaptop:
		return s.Laptop, nil
	default:
		return nil, fmt.Errorf("video: no client on process %q", process)
	}
}

// Processes returns the SocketProcess adapters for all three processes,
// keyed by process name — ready to attach adaptation agents to.
func (s *System) Processes() map[string]*adapters.SocketProcess {
	factory := FilterFactory()
	return map[string]*adapters.SocketProcess{
		paper.ProcessServer:   adapters.NewSendProcess(paper.ProcessServer, s.Server.Socket(), factory),
		paper.ProcessHandheld: adapters.NewRecvProcess(paper.ProcessHandheld, s.Handheld.Socket(), factory),
		paper.ProcessLaptop:   adapters.NewRecvProcess(paper.ProcessLaptop, s.Laptop.Socket(), factory),
	}
}

// Drain waits until both clients have processed everything their links
// accepted (metasocket.RecvSocket.WaitDrained), bounded by timeout. Call
// it after the stream stops and before reading final statistics.
func (s *System) Drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, c := range []*Client{s.Handheld, s.Laptop} {
		if err := c.Socket().WaitDrained(ctx); err != nil {
			return fmt.Errorf("video: drain %s: %w", c.Name(), err)
		}
	}
	return nil
}

// Close tears the system down: the group closes and the sockets finish
// what the links flush to them.
func (s *System) Close() error {
	err := s.Group.Close()
	s.Handheld.Socket().Wait()
	s.Laptop.Socket().Wait()
	s.Server.Socket().Close()
	return err
}

// ConfigurationOf reports the current component composition as filter
// names, e.g. server ["E1"], handheld ["D1"], laptop ["D4"], useful for
// asserting that an adaptation really recomposed the chains.
func (s *System) ConfigurationOf() map[string][]string {
	return map[string][]string{
		paper.ProcessServer:   s.Server.Socket().Filters(),
		paper.ProcessHandheld: s.Handheld.Socket().Filters(),
		paper.ProcessLaptop:   s.Laptop.Socket().Filters(),
	}
}

// SenderFirstPhases is the reset-phase policy for the video system, the
// declared dataflow's (spec.Compiled.ResetPhases): the data-flow upstream
// process (the server) takes its turn before the downstream clients, so
// that when a client drains its link the sender is either blocked or a
// bystander the step does not change — together they realize the paper's
// global safe condition ("the receiver has received all the datagram
// packets that the sender has sent").
//
// When a step touches only clients (e.g. A16, remove D4), the server is
// conscripted anyway — to take part, not to block: packets it sent before
// the step may have been encoded under an earlier chain, and swapping a
// decoder before they land would strand them, so the clients drain to
// what had been sent when their reset began (RecvSocket.WaitDrained) while
// the server, which the step leaves alone, keeps streaming
// (adapters.SocketProcess.Reset). The manager adds conscripted processes
// to the step's participants. A step touching only the server (A1) needs
// no order: nil, one simultaneous phase.
func SenderFirstPhases(participants []string) [][]string {
	return declared.ResetPhases(participants)
}
