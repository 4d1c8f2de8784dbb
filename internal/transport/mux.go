package transport

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// This file is the TCP transport, the paper's "direct TCP connection" between
// the manager and the agents: one listening hub and one reconnecting client
// whose logical endpoints share its connection. A flat deployment is the
// hub named protocol.ManagerName (ListenTCP) plus one client with one
// endpoint per agent (DialReconnectingTCP). The fleet plane is the same
// pair with more streams per link: a MuxClient registers any number of
// named endpoints on its conn (one hello frame each), and a coordinator
// registers itself plus the agent names it covers, so the hub routes
// per-agent traffic to the right link without a topology in the transport.
// One frame can carry a whole wave for a link (protocol.MsgBatch), which
// turns the manager's O(n) frames per wave into O(links).
//
// What "message loss" means, the same for every deployment shape:
//   - a frame whose From the connection never registered (or declared
//     coverage for) is dropped and counted, never re-attributed;
//   - a send while the client is between connections rides a bounded
//     buffer (maxMuxPending) and is flushed behind the re-registration;
//     only a full buffer or a closed client is loss;
//   - a name registering again re-routes to the new conn; the old conn is
//     left to die on its own, its other streams may still be live.
//
// Ordering: a hub serializes frame writes per process (sendMu), and a
// client demultiplexes with a single read loop, so messages of one
// logical stream (one From→To pair) are delivered in send order even when
// many endpoints share the conn.

// MuxManager is the listening side of the TCP transport. It implements
// Endpoint (inbox of every frame received from any registered name) and
// BatchSender (a wave leaves as one frame per message, or one MsgBatch
// frame per link where messages share one).
type MuxManager struct {
	name  string
	ln    net.Listener
	inbox chan protocol.Message
	tel   atomic.Pointer[telemetry.Registry]

	mu       sync.Mutex
	links    map[*muxLink]struct{} // every accepted connection still being served
	routes   map[string]*muxRoute  // registered name (direct or covered) → route
	wave     uint64                // SendBatch's current mark, see flatWave
	closed   bool
	regPulse chan struct{} // closed (and replaced) on every registration change
	wg       sync.WaitGroup

	// sendMu serializes frame writes: heartbeats, wave batches and
	// recovery probes are sent concurrently, and interleaved partial
	// writes would corrupt the framing.
	sendMu sync.Mutex
}

// muxLink is one accepted connection. wave is the last SendBatch mark
// that touched it (guarded by the hub's mu).
type muxLink struct {
	conn net.Conn
	wave uint64
}

// muxRoute is where frames for one registered name go: the link, the
// endpoint that declared the route (the name itself for a direct
// registration, the covering relay endpoint otherwise), and whether the
// route goes through a relay — frames for covered names are wrapped in
// MsgBatch envelopes addressed to the owner, so the relay sees them on
// its own logical endpoint.
type muxRoute struct {
	link  *muxLink
	owner string
	relay bool
}

// SetTelemetry installs the telemetry registry the endpoint counts frame
// traffic on. Nil disables instrumentation.
func (m *MuxManager) SetTelemetry(tel *telemetry.Registry) { m.tel.Store(tel) }

// ListenTCP starts the manager's endpoint on addr: the hub named
// protocol.ManagerName.
func ListenTCP(addr string) (*MuxManager, error) {
	return ListenMux(protocol.ManagerName, addr)
}

// ListenMux starts a hub endpoint named name on addr (e.g. "127.0.0.1:0").
// A coordinator's downward hub is named after the coordinator.
func ListenMux(name, addr string) (*MuxManager, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	m := &MuxManager{
		name:     name,
		ln:       ln,
		inbox:    make(chan protocol.Message, 256),
		links:    make(map[*muxLink]struct{}),
		routes:   make(map[string]*muxRoute),
		regPulse: make(chan struct{}),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the listening address, for clients to dial.
func (m *MuxManager) Addr() string { return m.ln.Addr().String() }

// Name implements Endpoint.
func (m *MuxManager) Name() string { return m.name }

// Inbox implements Endpoint.
func (m *MuxManager) Inbox() <-chan protocol.Message { return m.inbox }

// Send implements Endpoint: it writes the message to the link serving
// msg.To. A message for a covered (relayed) name is wrapped in a MsgBatch
// envelope addressed to the relay, so the relay's demultiplexer hands it
// to the relay process rather than dropping an unknown stream.
func (m *MuxManager) Send(msg protocol.Message) error {
	if msg.From == "" {
		msg.From = m.name
	}
	m.mu.Lock()
	rt, ok := m.routes[msg.To]
	m.mu.Unlock()
	if !ok {
		tel := m.tel.Load()
		tel.Counter("transport.tcp.send_errors").Inc()
		noteDrop(tel, msg, "no route")
		return fmt.Errorf("transport: no route to %q", msg.To)
	}
	out := msg
	if rt.relay && msg.To != rt.owner {
		out = protocol.PackBatch(rt.owner, []protocol.Message{msg})
		out.From = msg.From
	}
	m.tel.Load().Counter("transport.tcp.frames_sent").Inc()
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	//safeadaptvet:allow locksend -- sendMu is a dedicated frame-write serializer guarding no protocol state; the route was copied out from under the state lock m.mu above
	return protocol.WriteFrame(rt.link.conn, out)
}

// SendBatch implements BatchSender. Messages share a frame only when they
// share a link: a wave whose targets are all directly registered on
// pairwise-distinct connections — every wave of a flat deployment — is
// written as plain frames, exactly as Send would, and allocates nothing
// of its own. Otherwise messages are grouped by link in first-seen order
// (deterministic for a deterministically ordered wave) and each group of
// two or more, and every group for a relay, leaves as a single MsgBatch
// frame, preserving in-group order. Groups for dead or unknown links are
// counted as loss; the first error is returned after every message has
// been attempted.
func (m *MuxManager) SendBatch(msgs []protocol.Message) error {
	var firstErr error
	if m.flatWave(msgs) {
		for _, msg := range msgs {
			if err := m.Send(msg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	// One envelope per relay endpoint (addressed to it), one anonymous
	// envelope per link for directly registered streams (the client
	// demultiplexes those by each enclosed To).
	type gkey struct {
		link  *muxLink
		owner string // "" for direct streams
	}
	type group struct {
		key  gkey
		msgs []protocol.Message
	}
	var groups []*group
	index := make(map[gkey]*group)
	m.mu.Lock()
	for _, msg := range msgs {
		if msg.From == "" {
			msg.From = m.name
		}
		rt, ok := m.routes[msg.To]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: no route to %q", msg.To)
			}
			m.tel.Load().Counter("transport.tcp.send_errors").Inc()
			continue
		}
		key := gkey{link: rt.link}
		if rt.relay {
			key.owner = rt.owner
		}
		g := index[key]
		if g == nil {
			g = &group{key: key}
			index[key] = g
			groups = append(groups, g)
		}
		g.msgs = append(g.msgs, msg)
	}
	m.mu.Unlock()

	tel := m.tel.Load()
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	for _, g := range groups {
		out := g.msgs[0]
		if len(g.msgs) > 1 || g.key.owner != "" {
			out = protocol.PackBatch(g.key.owner, g.msgs)
			out.From = m.name
			tel.Counter("transport.tcp.batched_msgs").Add(int64(len(g.msgs)))
		}
		tel.Counter("transport.tcp.frames_sent").Inc()
		//safeadaptvet:allow locksend -- sendMu is a dedicated frame-write serializer guarding no protocol state; routes were copied out from under the state lock m.mu above
		if err := protocol.WriteFrame(g.key.link.conn, out); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flatWave reports whether no two messages of the wave share a link and
// none goes through a relay, so no envelope could save a frame. It marks
// each link it meets with a fresh wave number; meeting the mark again is
// a shared link. Unknown targets do not count: Send reports them.
func (m *MuxManager) flatWave(msgs []protocol.Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wave++
	for i := range msgs {
		rt, ok := m.routes[msgs[i].To]
		if !ok {
			continue
		}
		if rt.relay || rt.link.wave == m.wave {
			return false
		}
		rt.link.wave = m.wave
	}
	return true
}

// WaitForAgents blocks until every named endpoint is routable (directly
// registered or covered by a relay), the hub closes, or the timeout
// elapses. It consumes no inbox messages.
func (m *MuxManager) WaitForAgents(timeout time.Duration, names ...string) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		missing := slices.IndexFunc(names, func(n string) bool { return m.routes[n] == nil })
		pulse := m.regPulse
		m.mu.Unlock()
		if missing < 0 {
			return nil
		}
		select {
		case <-pulse: // a registration (or close) happened; re-check
		case <-timer.C:
			return fmt.Errorf("transport: endpoint %q did not register within %v", names[missing], timeout)
		}
	}
}

// pulseLocked wakes every WaitForAgents waiter. Callers hold m.mu.
func (m *MuxManager) pulseLocked() {
	close(m.regPulse)
	m.regPulse = make(chan struct{})
}

// Close implements Endpoint.
func (m *MuxManager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.pulseLocked()
	links := make([]*muxLink, 0, len(m.links))
	for l := range m.links {
		links = append(links, l)
	}
	m.mu.Unlock()

	_ = m.ln.Close()
	for _, l := range links {
		_ = l.conn.Close()
	}
	m.wg.Wait()
	close(m.inbox)
	return nil
}

func (m *MuxManager) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go m.serveConn(conn)
	}
}

// register binds name (and the coverage it declares) to link. A name
// moving to a new link (a redialed client) simply re-routes; the old conn
// is not torn down — its other streams may still be live.
func (m *MuxManager) register(link *muxLink, name string, covers []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.routes[name] = &muxRoute{link: link, owner: name, relay: len(covers) > 0}
	for _, c := range covers {
		m.routes[c] = &muxRoute{link: link, owner: name, relay: true}
	}
	m.pulseLocked()
}

func (m *MuxManager) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer func() { _ = conn.Close() }()
	link := &muxLink{conn: conn}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.links[link] = struct{}{} // Close reaches the conn even before its hello
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.links, link)
		for name, rt := range m.routes {
			if rt.link == link {
				delete(m.routes, name)
			}
		}
		m.mu.Unlock()
	}()

	// One decoder for the connection's life: frames arrive through one
	// buffer (a read system call per burst, not two per frame) and repeat a
	// handful of names and one step per round, which it decodes once.
	dec := protocol.NewDecoder(bufio.NewReader(conn))
	allowed := make(map[string]bool)

	// deliver pushes one attributed message to the hub inbox.
	deliver := func(msg protocol.Message) {
		if !allowed[msg.From] {
			// Trust the connection: only streams the conn registered (or
			// declared coverage for) may speak. Anything else is dropped,
			// not misattributed.
			tel := m.tel.Load()
			tel.Counter("transport.tcp.unattributed_drops").Inc()
			noteDrop(tel, msg, "unregistered stream")
			return
		}
		m.tel.Load().Counter("transport.tcp.frames_received").Inc()
		select {
		case m.inbox <- msg:
		default:
			// Overflow behaves like loss; the protocol tolerates it.
			m.tel.Load().Counter("transport.messages.overflowed").Inc()
			noteDrop(m.tel.Load(), msg, "inbox overflow")
		}
	}

	for {
		msg, err := dec.Next()
		if err != nil {
			break
		}
		if msg.Type == protocol.MsgHello && msg.From != "" {
			// Registration: a logical endpoint (or an updated coverage
			// set) joins the conn, at any time.
			allowed[msg.From] = true
			for _, c := range msg.Agents {
				allowed[c] = true
			}
			m.register(link, msg.From, msg.Agents)
			continue
		}
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed || len(allowed) == 0 {
			// A first frame that is not a hello of this wire version — a
			// peer of the JSON build fails to decode above — ends the
			// connection with no route touched.
			break
		}
		if msg.Type == protocol.MsgBatch && (msg.To == "" || msg.To == m.name) {
			// An upward wave batched into one frame: unbundle here so
			// inbox consumers only ever see protocol messages. Each inner
			// message is attributed on its own.
			for _, inner := range protocol.UnpackBatch(msg) {
				deliver(inner)
			}
			continue
		}
		deliver(msg)
	}
}

// MuxClient is the dialing side of the TCP transport: one reconnecting
// connection to a hub, shared by its logical endpoints. Each Endpoint call
// registers a named stream with a hello frame; when the connection dies
// (a manager crash, typically) the client redials through the address
// function — so a recovered manager listening on a NEW address is found as
// soon as the function returns it — and re-registers every endpoint, so a
// whole shard of agents reattaches with one dial.
type MuxClient struct {
	addr   func() string
	redial time.Duration
	tel    atomic.Pointer[telemetry.Registry]

	mu    sync.Mutex
	conn  net.Conn // nil while disconnected or mid-reattach
	eps   map[string]*MuxEndpoint
	order []*MuxEndpoint // registration order, for deterministic re-hello
	// pending buffers frames sent while conn is nil (bounded by
	// maxMuxPending). The redial loop flushes it after re-registering
	// every endpoint and before publishing the new conn, so a frame can
	// never reach the hub ahead of the hello that authorizes its stream.
	pending []protocol.Message
	// reattachHook, when a test sets it, runs after each round of frames
	// reattach writes, with no lock held.
	reattachHook func()
	closed       bool
	stop         chan struct{}
	wg           sync.WaitGroup

	// sendMu serializes frame writes so concurrent Sends from different
	// logical endpoints cannot interleave bytes; never held with mu.
	sendMu sync.Mutex
}

// SetTelemetry installs the telemetry registry the client counts frame
// traffic on. Nil disables instrumentation.
func (c *MuxClient) SetTelemetry(tel *telemetry.Registry) { c.tel.Store(tel) }

// DialMux connects to the hub address returned by addr and keeps
// reconnecting (polling addr each time) when the connection drops. The
// first dial is synchronous so connectivity errors surface immediately.
// redialDelay <= 0 means 50ms.
func DialMux(addr func() string, redialDelay time.Duration) (*MuxClient, error) {
	if redialDelay <= 0 {
		redialDelay = 50 * time.Millisecond
	}
	conn, err := net.Dial("tcp", addr())
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	c := &MuxClient{
		addr:   addr,
		redial: redialDelay,
		conn:   conn,
		eps:    make(map[string]*MuxEndpoint),
		stop:   make(chan struct{}),
	}
	c.wg.Add(1)
	go c.run(conn)
	return c, nil
}

// DialReconnectingTCP connects the named agent to the manager address
// returned by addr: a client with one logical endpoint. Closing the
// endpoint closes the connection, so the hub forgets the name at once.
func DialReconnectingTCP(name string, addr func() string, redialDelay time.Duration) (*MuxEndpoint, error) {
	c, err := DialMux(addr, redialDelay)
	if err != nil {
		return nil, err
	}
	ep, err := c.Endpoint(name)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	ep.solo = true
	return ep, nil
}

// Endpoint registers a logical endpoint on the shared connection and
// returns it. covers, if given, declares names this endpoint relays on
// behalf of (a fleet coordinator lists its subtree's agents): the hub
// will accept forwarded frames From those names on this conn and route
// frames addressed To them down this conn.
func (c *MuxClient) Endpoint(name string, covers ...string) (*MuxEndpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: empty endpoint name")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := c.eps[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: endpoint %q already registered", name)
	}
	ep := &MuxEndpoint{
		c:      c,
		name:   name,
		covers: covers,
		inbox:  make(chan protocol.Message, 64),
	}
	c.eps[name] = ep
	c.order = append(c.order, ep)
	conn := c.conn
	c.mu.Unlock()

	if conn != nil {
		// Registration failure here is indistinguishable from the conn
		// dying right after a successful hello; the redial loop re-hellos.
		_ = c.writeFrame(conn, ep.hello())
	}
	return ep, nil
}

// maxMuxPending bounds the frames a client buffers across a redial
// window. Overflow behaves like message loss — the protocol's retry
// ladder owns recovery beyond that, exactly as for a dead link.
const maxMuxPending = 128

// send writes one frame for the endpoint named from on the current
// connection. Between connections the frame is buffered for reattach to
// flush; the decision and the append share one critical section with
// reattach's publish step, so a frame is never parked behind a live
// connection. A full buffer or a closed client is loss.
func (c *MuxClient) send(from string, frame protocol.Message) error {
	c.mu.Lock()
	conn := c.conn
	buffered := conn == nil && !c.closed && len(c.pending) < maxMuxPending
	if buffered {
		frame.Batch = slices.Clone(frame.Batch) // a batch is borrowed (BatchSender)
		c.pending = append(c.pending, frame)
	}
	c.mu.Unlock()
	switch {
	case buffered:
		c.tel.Load().Counter("transport.tcp.redial_buffered").Inc()
		return nil
	case conn == nil:
		c.tel.Load().Counter("transport.tcp.send_errors").Inc()
		return fmt.Errorf("transport: endpoint %q disconnected from hub", from)
	}
	// If the redial loop swaps the connection after the copy, the write
	// fails on the stale conn — indistinguishable from message loss.
	return c.writeFrame(conn, frame)
}

// hello builds the endpoint's registration frame.
func (e *MuxEndpoint) hello() protocol.Message {
	return protocol.Message{Type: protocol.MsgHello, From: e.name, Agents: e.covers}
}

// writeFrame writes one frame under the send serializer.
func (c *MuxClient) writeFrame(conn net.Conn, msg protocol.Message) error {
	c.tel.Load().Counter("transport.tcp.frames_sent").Inc()
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	//safeadaptvet:allow locksend -- sendMu is a dedicated frame-write serializer guarding no protocol state; conn was copied out from under the state lock c.mu by the caller
	return protocol.WriteFrame(conn, msg)
}

// Close shuts the client and every logical endpoint down.
func (c *MuxClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	eps := append([]*MuxEndpoint(nil), c.order...)
	c.mu.Unlock()
	close(c.stop)
	if conn != nil {
		_ = conn.Close()
	}
	c.wg.Wait()
	for _, ep := range eps {
		ep.closeInbox()
	}
	return nil
}

// run is the shared read/redial loop: one reader demultiplexes frames to
// the per-endpoint inboxes; on connection death it redials, reattaches
// every endpoint, and carries on. The logical inboxes survive the
// transfer — agents on top never notice, and epoch fencing sorts out
// which manager incarnation's messages still matter.
func (c *MuxClient) run(conn net.Conn) {
	defer c.wg.Done()
	dec := protocol.NewDecoder(bufio.NewReader(conn)) // one per connection, as on the hub
	for {
		if conn == nil {
			select {
			case <-c.stop:
				return
			case <-time.After(c.redial):
			}
			nc, err := net.Dial("tcp", c.addr())
			if err != nil {
				continue
			}
			if !c.reattach(nc) {
				_ = nc.Close()
				continue
			}
			conn = nc
			dec = protocol.NewDecoder(bufio.NewReader(conn))
			c.tel.Load().Counter("transport.tcp.reconnects").Inc()
		}
		msg, err := dec.Next()
		if err != nil {
			_ = conn.Close()
			c.mu.Lock()
			if c.conn == conn {
				c.conn = nil
			}
			closed := c.closed
			c.mu.Unlock()
			conn = nil
			if closed {
				return
			}
			continue
		}
		c.tel.Load().Counter("transport.tcp.frames_received").Inc()
		c.route(msg)
	}
}

// reattach registers every endpoint on the fresh connection nc in
// registration order, flushes the frames buffered while disconnected, and
// publishes nc. Sends keep buffering and Endpoint calls write no hello
// until c.conn is visible, so the step that publishes it checks both lists
// under the same lock and goes round again while either has grown: every
// endpoint is registered, and every buffered frame leaves behind the
// hello that authorizes its stream, before any direct write — the hub
// never sees a frame on a stream it has not readmitted yet. It reports
// false when a write failed (the unflushed frames are loss, like on any
// dead link) or the client closed.
func (c *MuxClient) reattach(nc net.Conn) bool {
	helloed := make(map[*MuxEndpoint]bool)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		var out []protocol.Message
		for _, ep := range c.order {
			if !helloed[ep] {
				helloed[ep] = true
				out = append(out, ep.hello())
			}
		}
		flushing := len(out) == 0
		if flushing {
			out, c.pending = c.pending, nil
		}
		if len(out) == 0 {
			c.conn = nc
			c.mu.Unlock()
			return true
		}
		hook := c.reattachHook
		c.mu.Unlock()
		for i, msg := range out {
			if err := c.writeFrame(nc, msg); err != nil {
				if flushing {
					tel := c.tel.Load()
					for _, lost := range out[i:] {
						tel.Counter("transport.tcp.send_errors").Inc()
						noteDrop(tel, lost, "redial flush failed")
					}
				}
				return false
			}
			if flushing {
				c.tel.Load().Counter("transport.tcp.redial_flushed").Inc()
			}
		}
		if hook != nil {
			hook()
		}
	}
}

// route delivers one received frame: to the named endpoint when the To is
// registered here (a relay receives whole MsgBatch envelopes addressed to
// it), otherwise — for batch envelopes — each enclosed message to its own
// endpoint. Messages for unknown streams are counted as loss.
func (c *MuxClient) route(msg protocol.Message) {
	c.mu.Lock()
	ep := c.eps[msg.To]
	c.mu.Unlock()
	switch {
	case ep != nil:
		c.push(ep, msg)
	case msg.Type == protocol.MsgBatch:
		for _, inner := range protocol.UnpackBatch(msg) {
			c.route(inner) // never an envelope with contents: the codec refuses nesting
		}
	default:
		tel := c.tel.Load()
		tel.Counter("transport.tcp.unrouted_drops").Inc()
		noteDrop(tel, msg, "no local endpoint")
	}
}

func (c *MuxClient) push(ep *MuxEndpoint, msg protocol.Message) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	select {
	case ep.inbox <- msg:
	default:
		c.tel.Load().Counter("transport.messages.overflowed").Inc()
		noteDrop(c.tel.Load(), msg, "inbox overflow")
	}
}

// MuxEndpoint is one logical endpoint on a MuxClient's connection.
type MuxEndpoint struct {
	c      *MuxClient
	name   string
	covers []string // names relayed on behalf of, declared in the hello
	solo   bool     // the client's only endpoint (DialReconnectingTCP): Close closes the client

	mu     sync.Mutex
	inbox  chan protocol.Message
	closed bool
}

// SetTelemetry installs the registry on the endpoint's client.
func (e *MuxEndpoint) SetTelemetry(tel *telemetry.Registry) { e.c.SetTelemetry(tel) }

// Name implements Endpoint.
func (e *MuxEndpoint) Name() string { return e.name }

// Inbox implements Endpoint.
func (e *MuxEndpoint) Inbox() <-chan protocol.Message { return e.inbox }

// Send implements Endpoint. A caller-set From is preserved, so a relay
// can forward messages on behalf of its subtree (the hub admits only
// Froms within the conn's declared coverage); otherwise From is the
// endpoint's own name. Across a redial window the frame is buffered
// (bounded) and flushed after the client re-registers on the new
// connection; only a full buffer or a closed client is loss.
func (e *MuxEndpoint) Send(msg protocol.Message) error {
	if msg.From == "" {
		msg.From = e.name
	}
	return e.c.send(e.name, msg)
}

// SendBatch implements BatchSender: the messages leave as one MsgBatch
// frame on the shared connection (or ride the redial buffer as one),
// preserving order. The envelope is addressed by the hub's routing (each
// enclosed To), so it is sent unaddressed.
func (e *MuxEndpoint) SendBatch(msgs []protocol.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	for i := range msgs {
		if msgs[i].From == "" {
			msgs[i].From = e.name
		}
	}
	env := protocol.PackBatch("", msgs)
	env.From = e.name
	e.c.tel.Load().Counter("transport.tcp.batched_msgs").Add(int64(len(msgs)))
	return e.c.send(e.name, env)
}

func (e *MuxEndpoint) closeInbox() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.inbox)
}

// Close implements Endpoint: the logical endpoint deregisters locally
// (the shared connection stays up for its siblings). A client's only
// endpoint takes the client, and so the connection, with it.
func (e *MuxEndpoint) Close() error {
	if e.solo {
		return e.c.Close()
	}
	e.c.mu.Lock()
	if e.c.eps[e.name] == e {
		delete(e.c.eps, e.name)
	}
	e.c.order = slices.DeleteFunc(e.c.order, func(ep *MuxEndpoint) bool { return ep == e })
	e.c.mu.Unlock()
	e.closeInbox()
	return nil
}

var (
	_ Endpoint    = (*MuxManager)(nil)
	_ Endpoint    = (*MuxEndpoint)(nil)
	_ BatchSender = (*MuxManager)(nil)
	_ BatchSender = (*MuxEndpoint)(nil)
)
