// Package transport carries protocol messages between the adaptation
// manager and the agents. Two implementations are provided: an in-memory
// bus with deterministic fault injection (for tests and the paper's
// failure experiments) and a TCP transport (for the deployment shape the
// paper describes: "the adaptation manager uses a direct TCP connection to
// communicate with the agents").
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Endpoint is one communication endpoint (the manager or one agent).
type Endpoint interface {
	// Name returns the endpoint's registered name.
	Name() string
	// Send delivers msg to the endpoint named msg.To. Send returns once
	// the message is handed to the transport; delivery is asynchronous
	// and, depending on the transport and injected faults, may not occur.
	Send(msg protocol.Message) error
	// Inbox returns the channel of received messages. The channel closes
	// when the endpoint closes.
	Inbox() <-chan protocol.Message
	// Close releases the endpoint.
	Close() error
}

// BatchSender is implemented by endpoints that can hand a whole wave of
// messages to the transport at once. The manager uses it to pipeline wave
// fan-out: all commands of a wave are stamped and fired as one unit —
// ideally one length-prefixed frame per child link — before any ack is
// awaited. SendBatch is best-effort per message: it attempts every
// message (a dead link loses only that link's share, which the protocol
// already treats as message loss) and returns the first error seen.
// Implementations must preserve the slice's order within each link so the
// deterministic sorted send order survives batching. The slice is borrowed
// for the call — the manager refills it for its next wave — so an
// implementation that keeps messages past the call copies them.
type BatchSender interface {
	SendBatch(msgs []protocol.Message) error
}

// FaultFunc inspects a message about to be delivered and returns the fault
// to apply. Returning (false, 0) delivers normally; (true, _) drops the
// message; (false, d>0) delays delivery by d.
type FaultFunc func(msg protocol.Message) (drop bool, delay time.Duration)

// Bus is an in-memory transport connecting named endpoints. It preserves
// per-sender FIFO order for undelayed messages and applies the configured
// FaultFunc to every message, making the paper's loss-of-message failures
// reproducible.
type Bus struct {
	mu        sync.Mutex
	endpoints map[string]*busEndpoint
	fault     FaultFunc
	tel       atomic.Pointer[telemetry.Registry] // nil-safe; lock-free for push()
	wg        sync.WaitGroup
	closed    bool
}

// NewBus returns an empty bus with no fault injection.
func NewBus() *Bus {
	return &Bus{endpoints: make(map[string]*busEndpoint)}
}

// SetFault installs the fault function applied to subsequent messages.
// Passing nil clears fault injection.
func (b *Bus) SetFault(f FaultFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fault = f
}

// SetTelemetry installs the telemetry registry the bus counts message
// traffic on (sent, dropped by fault injection, delayed, overflowed).
// Nil disables instrumentation.
func (b *Bus) SetTelemetry(tel *telemetry.Registry) {
	b.tel.Store(tel)
}

// Endpoint registers and returns the endpoint with the given name.
func (b *Bus) Endpoint(name string) (Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if name == "" {
		return nil, fmt.Errorf("transport: empty endpoint name")
	}
	if _, dup := b.endpoints[name]; dup {
		return nil, fmt.Errorf("transport: endpoint %q already registered", name)
	}
	ep := &busEndpoint{
		bus:   b,
		name:  name,
		inbox: make(chan protocol.Message, 64),
		done:  make(chan struct{}),
	}
	b.endpoints[name] = ep
	return ep, nil
}

// Close shuts the bus and all endpoints down, waiting for in-flight
// delayed deliveries to finish or be dropped.
func (b *Bus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	eps := make([]*busEndpoint, 0, len(b.endpoints))
	for _, ep := range b.endpoints {
		eps = append(eps, ep)
	}
	b.mu.Unlock()

	for _, ep := range eps {
		ep.closeLocal()
	}
	b.wg.Wait()
	return nil
}

func (b *Bus) deliver(msg protocol.Message) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	dst, ok := b.endpoints[msg.To]
	fault := b.fault
	b.mu.Unlock()
	tel := b.tel.Load()
	if !ok {
		return fmt.Errorf("transport: unknown endpoint %q", msg.To)
	}

	tel.Counter("transport.messages.sent").Inc()
	var delay time.Duration
	if fault != nil {
		drop, d := fault(msg)
		if drop {
			tel.Counter("transport.messages.dropped").Inc()
			noteDrop(tel, msg, "fault injection")
			return nil // silently lost, like a dropped datagram
		}
		delay = d
	}
	if delay <= 0 {
		dst.push(msg)
		return nil
	}
	tel.Counter("transport.messages.delayed").Inc()
	// Only this branch's copy is captured by the goroutine, so only a
	// delayed message moves to the heap.
	late := msg
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
			dst.push(late)
		case <-dst.done:
		}
	}()
	return nil
}

type busEndpoint struct {
	bus  *Bus
	name string

	mu     sync.Mutex
	inbox  chan protocol.Message
	done   chan struct{}
	closed bool
}

func (e *busEndpoint) Name() string { return e.name }

func (e *busEndpoint) Send(msg protocol.Message) error {
	msg.From = e.name
	return e.bus.deliver(msg)
}

func (e *busEndpoint) Inbox() <-chan protocol.Message { return e.inbox }

func (e *busEndpoint) push(msg protocol.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.inbox <- msg:
	default:
		// Inbox overflow behaves like loss; protocols must tolerate it.
		tel := e.bus.tel.Load()
		tel.Counter("transport.messages.overflowed").Inc()
		noteDrop(tel, msg, "inbox overflow")
	}
}

// noteDrop records a lost message in the registry's flight recorder so the
// post-mortem timeline shows where a message disappeared, not just that a
// reply never came.
func noteDrop(tel *telemetry.Registry, msg protocol.Message, why string) {
	fr := tel.Flight()
	if !fr.Enabled() {
		return
	}
	fr.Record(telemetry.FlightEvent{
		Kind:    telemetry.FlightDrop,
		Lamport: tel.LamportNow(),
		TraceID: msg.Trace.TraceID,
		Detail:  why,
		MsgType: msg.Type.String(),
		From:    msg.From,
		To:      msg.To,
		Step:    msg.Step.Key(),
	})
}

func (e *busEndpoint) closeLocal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.done)
	close(e.inbox)
}

func (e *busEndpoint) Close() error {
	e.bus.mu.Lock()
	delete(e.bus.endpoints, e.name)
	e.bus.mu.Unlock()
	e.closeLocal()
	return nil
}

// DropSequence returns a FaultFunc that drops the nth (1-based) message
// matching the predicate and delivers everything else. It is the tool for
// "lose exactly the first resume message" style experiments.
func DropSequence(n int, match func(protocol.Message) bool) FaultFunc {
	var mu sync.Mutex
	count := 0
	return func(msg protocol.Message) (bool, time.Duration) {
		if !match(msg) {
			return false, 0
		}
		mu.Lock()
		defer mu.Unlock()
		count++
		return count == n, 0
	}
}

// DropAll returns a FaultFunc that drops every message matching the
// predicate — a long-term network failure (Sec. 4.4).
func DropAll(match func(protocol.Message) bool) FaultFunc {
	return func(msg protocol.Message) (bool, time.Duration) {
		return match(msg), 0
	}
}

// MatchType matches messages of the given type.
func MatchType(t protocol.MsgType) func(protocol.Message) bool {
	return func(m protocol.Message) bool { return m.Type == t }
}

// MatchTypeTo matches messages of the given type addressed to the named
// endpoint.
func MatchTypeTo(t protocol.MsgType, to string) func(protocol.Message) bool {
	return func(m protocol.Message) bool { return m.Type == t && m.To == to }
}
