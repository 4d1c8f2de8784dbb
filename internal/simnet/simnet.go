// Package simnet is the virtual control-plane network under the two
// deterministic worlds that run the real manager, coordinators and agents:
// the model checker (internal/explore) and the fleet simulator
// (internal/fleet). It owns what both need — a settable clock, named
// ports that are transport.Endpoints, hop routing through a coordinator
// tree, per-link MsgBatch envelopes, the dispatcher that hands a frame to
// its receiver — and leaves to a World the one thing they differ in: what
// happens to a frame between a port accepting it and Deliver. The explorer
// makes that gap scheduling choices and faults; the simulator makes it
// serialization, latency and jitter. Nothing here starts a goroutine or
// reads the wall clock.
package simnet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// Frame is one protocol message on one virtual link. From and To are the
// link's ends — the hop — which in a coordinator tree differ from the
// message's own From and To: an agent's ack addressed to the manager first
// rides the agent→leaf-coordinator link. Flat, hop and address coincide.
type Frame struct {
	Msg      protocol.Message
	From, To string
	Units    int  // protocol messages serialized in the frame (a batch's size)
	Down     bool // travels parent→child
}

// World is the policy a Net runs under, called on the goroutine of whoever
// uses a port.
type World interface {
	// Admit sees every message a port is asked to send, From set, before
	// it is routed or batched. False drops it without an error, the way a
	// dead receiver's socket would.
	Admit(port string, msg protocol.Message) bool
	// Submit takes one routed frame; the world decides when, whether and
	// in what order to hand it to Deliver.
	Submit(f Frame)
	// Recv is the manager port's blocking receive: the world runs until a
	// frame for the manager is due or the wait ends another way.
	Recv(ctx context.Context, deadline time.Time) (protocol.Message, transport.RecvStatus)
}

// Router picks the link a message leaves a node on; *fleet.Topology
// implements it. A Net without one is flat: the hop is the addressee.
type Router interface {
	// Uplink returns the parent end of the named node's only upward link.
	Uplink(name string) (string, bool)
	// NextHopDown returns the child of from whose subtree holds agent —
	// the agent itself below its leaf coordinator.
	NextHopDown(from, agent string) (string, bool)
}

// Receiver is an agent, and Relay a coordinator, as Deliver sees them.
type (
	Receiver interface{ Deliver(msg protocol.Message) }
	Relay    interface {
		DeliverFromParent(msg protocol.Message)
		DeliverFromChild(msg protocol.Message)
	}
)

// Net is one virtual network: a world, an optional router, and the
// receivers frames are dispatched to.
type Net struct {
	world  World
	router Router
	agents map[string]Receiver
	relays map[string]Relay
}

// New builds a network under the given world. A nil router makes it flat.
func New(world World, router Router) *Net {
	return &Net{world: world, router: router, agents: make(map[string]Receiver), relays: make(map[string]Relay)}
}

// Attach registers the agent that frames for name are delivered to.
func (n *Net) Attach(name string, r Receiver) { n.agents[name] = r }

// AttachRelay registers — or, after a modelled crash, replaces — the
// coordinator that frames for name are delivered to.
func (n *Net) AttachRelay(name string, r Relay) { n.relays[name] = r }

// Up returns the named node's port toward its parent.
func (n *Net) Up(name string) *Port { return &Port{net: n, name: name} }

// Down returns the named node's port toward its children.
func (n *Net) Down(name string) *Port { return &Port{net: n, name: name, down: true} }

// Deliver hands a frame to the receiver at its To end. A frame for the
// manager is returned instead (true), for the world's Recv to return.
func (n *Net) Deliver(f Frame) (protocol.Message, bool) {
	if f.To == protocol.ManagerName {
		return f.Msg, true
	}
	if k := n.relays[f.To]; k != nil {
		if f.Down {
			k.DeliverFromParent(f.Msg)
		} else {
			k.DeliverFromChild(f.Msg)
		}
	} else if a := n.agents[f.To]; a != nil {
		a.Deliver(f.Msg)
	}
	return protocol.Message{}, false
}

// Port is one node's attachment to the network in one direction. It is a
// transport.SyncEndpoint whose inbox is never used: receivers are driven
// through Net.Deliver, and only the manager — the one component that
// blocks in Recv — ever calls it.
type Port struct {
	net  *Net
	name string
	down bool
}

func (p *Port) Name() string                   { return p.name }
func (p *Port) Inbox() <-chan protocol.Message { return nil }
func (p *Port) Close() error                   { return nil }

// Recv runs the world until a frame for the manager is due.
func (p *Port) Recv(ctx context.Context, deadline time.Time) (protocol.Message, transport.RecvStatus) {
	return p.net.world.Recv(ctx, deadline)
}

// Send submits msg as a frame of its own on the link toward msg.To.
func (p *Port) Send(msg protocol.Message) error {
	hop, err := p.route(&msg)
	if hop != "" {
		p.submit(msg, hop, 1)
	}
	return err
}

// route stamps the sender, lets the world veto the message and picks its
// link. An empty hop means nothing to submit: vetoed (nil error) or
// unroutable.
func (p *Port) route(msg *protocol.Message) (string, error) {
	if msg.From == "" {
		msg.From = p.name
	}
	if !p.net.world.Admit(p.name, *msg) {
		return "", nil
	}
	hop, ok := msg.To, true
	if r := p.net.router; r != nil && p.down {
		hop, ok = r.NextHopDown(p.name, msg.To)
	} else if r != nil {
		hop, ok = r.Uplink(p.name)
	}
	if !ok || hop == "" {
		return "", fmt.Errorf("simnet: %s has no link toward %q", p.name, msg.To)
	}
	return hop, nil
}

func (p *Port) submit(msg protocol.Message, hop string, units int) {
	p.net.world.Submit(Frame{Msg: msg, From: p.name, To: hop, Units: units, Down: p.down})
}

// BatchPort is a Port that is also a transport.BatchSender, framing a
// wave the way the TCP hub does: one MsgBatch envelope per link.
type BatchPort struct{ *Port }

// Send frames a single message as SendBatch would.
func (p BatchPort) Send(msg protocol.Message) error {
	return p.SendBatch([]protocol.Message{msg})
}

// SendBatch groups msgs by link, in first-seen order, into one envelope
// per link. A message whose link ends at its addressee is never wrapped:
// it leaves at once as a frame of its own.
func (p BatchPort) SendBatch(msgs []protocol.Message) error {
	var firstErr error
	var order []string
	groups := make(map[string][]protocol.Message)
	for _, msg := range msgs {
		hop, err := p.route(&msg)
		switch {
		case hop == "":
			if firstErr == nil {
				firstErr = err
			}
		case hop == msg.To:
			p.submit(msg, hop, 1)
		default:
			if _, seen := groups[hop]; !seen {
				order = append(order, hop)
			}
			groups[hop] = append(groups[hop], msg)
		}
	}
	for _, hop := range order {
		env := protocol.PackBatch(hop, groups[hop])
		env.From = p.name
		p.submit(env, hop, len(groups[hop]))
	}
	return firstErr
}
