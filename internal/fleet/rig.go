package fleet

import (
	"fmt"
	"time"

	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Rig wires a real fleet over TCP: one mux hub for the root manager, one
// down-facing mux hub per coordinator, one multiplexed uplink connection
// per coordinator (declaring its agent coverage, so the parent hub routes
// the whole shard's traffic onto that single conn), and one multiplexed
// connection per agent to its leaf coordinator's hub. The manager plugs
// straight into Root — a transport.BatchSender, so sendWave leaves as one
// frame per top-level coordinator link.
type Rig struct {
	// Topo is the tree the rig realized.
	Topo *Topology
	// Root is the manager's endpoint: the top mux hub.
	Root *transport.MuxManager

	coords   []*Coordinator
	hubs     map[string]*transport.MuxManager
	clients  []*transport.MuxClient
	agentEPs map[string]*transport.MuxEndpoint
}

// RigOptions configures NewRig.
type RigOptions struct {
	// Telemetry receives hub, client and coordinator counters; nil
	// disables.
	Telemetry *telemetry.Registry
	// RedialDelay is the uplink redial backoff (default 50ms).
	RedialDelay time.Duration
	// WaitTimeout bounds waiting for every link to attach (default 10s).
	WaitTimeout time.Duration
}

// NewRig builds and starts the whole plane on loopback TCP: hubs listen,
// coordinators dial their parents and run, agents' endpoints dial their
// leaves. On return every link is attached — the manager can adapt
// immediately. Close tears everything down.
func NewRig(topo *Topology, opts RigOptions) (rig *Rig, err error) {
	if opts.RedialDelay <= 0 {
		opts.RedialDelay = 50 * time.Millisecond
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 10 * time.Second
	}
	r := &Rig{
		Topo:     topo,
		hubs:     make(map[string]*transport.MuxManager),
		agentEPs: make(map[string]*transport.MuxEndpoint),
	}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()

	r.Root, err = transport.ListenMux(protocol.ManagerName, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.Root.SetTelemetry(opts.Telemetry)

	// Every coordinator gets a down-facing hub of its own.
	for _, c := range topo.Coords {
		hub, herr := transport.ListenMux(c.Name, "127.0.0.1:0")
		if herr != nil {
			return nil, herr
		}
		hub.SetTelemetry(opts.Telemetry)
		r.hubs[c.Name] = hub
	}

	// Coordinators dial their parent's hub, declaring coverage so the
	// parent routes the whole shard over the one conn.
	for _, c := range topo.Coords {
		parentAddr := r.Root.Addr()
		if c.Parent != protocol.ManagerName {
			parentAddr = r.hubs[c.Parent].Addr()
		}
		addr := parentAddr
		client, cerr := transport.DialMux(func() string { return addr }, opts.RedialDelay)
		if cerr != nil {
			return nil, cerr
		}
		client.SetTelemetry(opts.Telemetry)
		r.clients = append(r.clients, client)
		up, uerr := client.Endpoint(c.Name, c.Covers...)
		if uerr != nil {
			return nil, uerr
		}
		coord, kerr := NewCoordinator(Options{
			Name:      c.Name,
			Parent:    c.Parent,
			Up:        up,
			Down:      r.hubs[c.Name],
			Telemetry: opts.Telemetry,
		})
		if kerr != nil {
			return nil, kerr
		}
		r.coords = append(r.coords, coord)
		go coord.Run()
	}

	// Agents attach to their leaf coordinator's hub.
	for _, a := range topo.Agents {
		leaf, _ := topo.Uplink(a)
		addr := r.hubs[leaf].Addr()
		client, cerr := transport.DialMux(func() string { return addr }, opts.RedialDelay)
		if cerr != nil {
			return nil, cerr
		}
		client.SetTelemetry(opts.Telemetry)
		r.clients = append(r.clients, client)
		ep, eerr := client.Endpoint(a)
		if eerr != nil {
			return nil, eerr
		}
		r.agentEPs[a] = ep
	}

	// Attachment barrier: the root hub must know every top-level link and
	// each coordinator hub its children before the first wave fires.
	if werr := r.Root.WaitForAgents(opts.WaitTimeout, topo.Roots...); werr != nil {
		return nil, fmt.Errorf("fleet rig: root links: %w", werr)
	}
	for _, c := range topo.Coords {
		if werr := r.hubs[c.Name].WaitForAgents(opts.WaitTimeout, c.Children...); werr != nil {
			return nil, fmt.Errorf("fleet rig: %s links: %w", c.Name, werr)
		}
	}
	return r, nil
}

// AgentEndpoint returns the named agent's transport endpoint (for
// agent.New). Nil if the name is not in the topology.
func (r *Rig) AgentEndpoint(name string) *transport.MuxEndpoint {
	return r.agentEPs[name]
}

// Close tears the plane down: coordinators, clients, hubs, root.
func (r *Rig) Close() {
	for _, c := range r.coords {
		c.Close()
	}
	for _, cl := range r.clients {
		_ = cl.Close()
	}
	for _, hub := range r.hubs {
		_ = hub.Close()
	}
	if r.Root != nil {
		_ = r.Root.Close()
	}
}
