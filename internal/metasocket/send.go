package metasocket

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// TransmitFunc delivers one marshalled packet to the network; the video
// server wires it to a netsim multicast group, tests to whatever they
// need.
//
// A payload is borrowed for the duration of the call it is passed to;
// whoever keeps bytes past the call copies them. The datagram is the
// socket's pooled marshal buffer, reused for the next packet as soon as
// the call returns. (Both real sinks copy — netsim's Group.Send into the
// buffer its links then own, a UDP write into the kernel.)
type TransmitFunc func(datagram []byte) error

// SendSocket is the sending half of a MetaSocket: application packets
// traverse the encoder filter chain and are transmitted. The chain is
// recomposable at run time while the socket is blocked in its local safe
// state (a packet boundary).
type SendSocket struct {
	*blocker
	chain    chain
	transmit TransmitFunc

	nextSeq atomic.Uint64
	sent    atomic.Uint64
	tel     atomic.Pointer[sendTelemetry]

	// mbuf is the pooled marshal buffer: sendLocked encodes every
	// outgoing packet into it and hands it to transmit, which must not
	// retain it (see TransmitFunc). Safe without locking because the
	// blocker admits one packet (or batch) at a time.
	mbuf []byte

	// observe, when set, sees every packet after chain processing, just
	// before transmission; the CCS instrumentation hooks in here.
	observe func(Packet)
}

// sendTelemetry is a registry with the per-packet handles resolved once,
// so that counting a packet is an atomic add and not a name lookup. Over
// a nil registry every handle is nil, and a nil handle is a no-op.
type sendTelemetry struct {
	reg                     *telemetry.Registry
	packets, transmitErrors *telemetry.Counter
}

// SetTelemetry installs the telemetry registry the socket reports packet
// counts and blocking latency to. Nil disables instrumentation.
func (s *SendSocket) SetTelemetry(tel *telemetry.Registry) {
	s.tel.Store(&sendTelemetry{
		reg:            tel,
		packets:        tel.Counter("metasocket.send.packets"),
		transmitErrors: tel.Counter("metasocket.send.transmit_errors"),
	})
}

// NewSendSocket builds a send socket with the given initial encoder chain.
func NewSendSocket(transmit TransmitFunc, filters ...Filter) (*SendSocket, error) {
	if transmit == nil {
		return nil, fmt.Errorf("metasocket: nil transmit function")
	}
	s := &SendSocket{blocker: newBlocker(), transmit: transmit}
	s.SetTelemetry(nil)
	for _, f := range filters {
		if err := s.chain.insert(f, -1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetObserver installs a hook that sees every packet immediately before
// transmission. Set it before traffic starts. A payload is borrowed for
// the duration of the call it is passed to; whoever keeps bytes past the
// call copies them.
func (s *SendSocket) SetObserver(fn func(Packet)) { s.observe = fn }

// Send pushes one packet through the filter chain and transmits the
// results. It blocks while the socket is held in its safe state and
// returns an error when the socket closed.
//
//safeadaptvet:hotpath
func (s *SendSocket) Send(p Packet) error {
	if !s.enter() {
		return fmt.Errorf("metasocket: send socket closed")
	}
	defer s.exit()
	return s.sendLocked(p)
}

// SendBatch transmits several packets as ONE critical section: a
// RequestBlock issued while the batch is in progress takes effect only
// after the whole batch has been transmitted. Applications use it to
// coarsen the socket's local safe state from packet boundaries to
// application-unit boundaries — e.g. a video server sending each frame's
// fragments as a batch guarantees that no recomposition of its own socket
// splits a frame.
//
//safeadaptvet:hotpath
func (s *SendSocket) SendBatch(ps []Packet) error {
	if len(ps) == 0 {
		return nil
	}
	if !s.enter() {
		return fmt.Errorf("metasocket: send socket closed")
	}
	defer s.exit()
	for _, p := range ps {
		if err := s.sendLocked(p); err != nil {
			return err
		}
	}
	return nil
}

// sendLocked runs one packet through the chain and transmits it; the
// caller holds the processing section (which is also what makes the
// pooled chain scratch and marshal buffer single-owner).
func (s *SendSocket) sendLocked(p Packet) error {
	outs, err := s.chain.run(p)
	if err != nil {
		return fmt.Errorf("metasocket: send chain: %w", err)
	}
	tel := s.tel.Load()
	for _, out := range outs {
		// A tag stack the wire form cannot hold is refused here, where
		// any filter's output becomes a datagram, not truncated into one
		// that no longer parses.
		if err := out.encodable(); err != nil {
			return err
		}
		out.Seq = s.nextSeq.Add(1)
		if s.observe != nil {
			s.observe(out)
		}
		s.mbuf = out.MarshalInto(s.mbuf)
		if err := s.transmit(s.mbuf); err != nil {
			tel.transmitErrors.Inc()
			return fmt.Errorf("metasocket: transmit: %w", err)
		}
		s.sent.Add(1)
		tel.packets.Inc()
	}
	return nil
}

// Sent returns the number of packets transmitted so far.
func (s *SendSocket) Sent() uint64 { return s.sent.Load() }

// Filters returns the chain's filter names in order.
func (s *SendSocket) Filters() []string { return s.chain.names() }

// InsertFilter appends (at == -1) or inserts the filter. The socket must
// be blocked.
func (s *SendSocket) InsertFilter(f Filter, at int) error {
	if !s.Blocked() {
		return ErrNotBlocked
	}
	return s.chain.insert(f, at)
}

// RemoveFilter removes the named filter. The socket must be blocked.
func (s *SendSocket) RemoveFilter(name string) error {
	if !s.Blocked() {
		return ErrNotBlocked
	}
	return s.chain.remove(name)
}

// ReplaceFilter swaps the named filter for f in place. The socket must be
// blocked.
func (s *SendSocket) ReplaceFilter(oldName string, f Filter) error {
	if !s.Blocked() {
		return ErrNotBlocked
	}
	return s.chain.replace(oldName, f)
}

// UnsafeInsertFilter, UnsafeRemoveFilter and UnsafeReplaceFilter mutate
// the chain without requiring the safe state; they exist solely for the
// baseline comparison (internal/baseline).
func (s *SendSocket) UnsafeInsertFilter(f Filter, at int) error { return s.chain.insert(f, at) }

// UnsafeRemoveFilter removes without blocking; see UnsafeInsertFilter.
func (s *SendSocket) UnsafeRemoveFilter(name string) error { return s.chain.remove(name) }

// UnsafeReplaceFilter replaces without blocking; see UnsafeInsertFilter.
func (s *SendSocket) UnsafeReplaceFilter(oldName string, f Filter) error {
	return s.chain.replace(oldName, f)
}

// Close shuts the socket down; pending Send calls return an error.
func (s *SendSocket) Close() { s.blocker.close() }

// RequestBlock drives the socket to its local safe state; see blocker.
// (Promoted here for documentation: the send socket's local safe state is
// "no packet is being encoded or transmitted".)
func (s *SendSocket) RequestBlock(ctx context.Context) error {
	start := time.Now()
	err := s.blocker.RequestBlock(ctx)
	tel := s.tel.Load().reg
	if err != nil {
		tel.Counter("metasocket.send.block_failures").Inc()
		return err
	}
	// Time to reach the local safe state: how long the in-progress packet
	// (or batch) made the reset wait.
	tel.Histogram("metasocket.send.block.latency").ObserveSince(start)
	return nil
}

// Unblock resumes packet processing. The time the socket was held
// blocked — the sender's blackout — is recorded.
func (s *SendSocket) Unblock() {
	if held, ok := s.unblock(); ok {
		s.tel.Load().reg.Histogram("metasocket.send.blocked.latency").Observe(held)
	}
}
