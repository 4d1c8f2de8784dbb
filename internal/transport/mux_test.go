package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/telemetry"
)

func muxPair(t *testing.T) (*MuxManager, *MuxClient) {
	t.Helper()
	hub, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	addr := hub.Addr()
	client, err := DialMux(func() string { return addr }, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return hub, client
}

func recvHub(t *testing.T, hub *MuxManager, timeout time.Duration) protocol.Message {
	t.Helper()
	select {
	case msg := <-hub.Inbox():
		return msg
	case <-time.After(timeout):
		t.Fatal("timeout waiting for hub message")
		return protocol.Message{}
	}
}

// TestMuxBatchedFrameCarriesWave: SendBatch from the hub reaches each
// endpoint individually; SendBatch from an endpoint lands as individual
// messages at the hub.
func TestMuxBatchedFrameCarriesWave(t *testing.T) {
	hub, client := muxPair(t)
	names := []string{"b0", "b1", "b2", "b3"}
	eps := map[string]*MuxEndpoint{}
	for _, n := range names {
		ep, err := client.Endpoint(n)
		if err != nil {
			t.Fatal(err)
		}
		eps[n] = ep
	}
	if err := hub.WaitForAgents(2*time.Second, names...); err != nil {
		t.Fatal(err)
	}

	var wave []protocol.Message
	for _, n := range names {
		wave = append(wave, protocol.Message{Type: protocol.MsgReset, To: n, Step: protocol.Step{Attempt: 1}})
	}
	if err := hub.SendBatch(wave); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		select {
		case msg := <-eps[n].Inbox():
			if msg.Type != protocol.MsgReset || msg.To != n || msg.Step.Attempt != 1 {
				t.Fatalf("%s got %+v", n, msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never received its wave command", n)
		}
	}

	up := []protocol.Message{
		{Type: protocol.MsgResetDone, To: "manager", Step: protocol.Step{Attempt: 1}},
		{Type: protocol.MsgAdaptDone, To: "manager", Step: protocol.Step{Attempt: 1}},
	}
	if err := eps["b0"].SendBatch(up); err != nil {
		t.Fatal(err)
	}
	for _, want := range []protocol.MsgType{protocol.MsgResetDone, protocol.MsgAdaptDone} {
		msg := recvHub(t, hub, 2*time.Second)
		if msg.Type != want || msg.From != "b0" {
			t.Fatalf("got %+v, want %v from b0", msg, want)
		}
	}
}

// TestMuxTornFrameDropsConnNotState: a raw conn that sends a valid hello,
// then half a frame, then dies must not poison the hub — and a fresh
// client under the same name reattaches and works.
func TestMuxTornFrameDropsConnNotState(t *testing.T) {
	hub, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(conn, protocol.Message{Type: protocol.MsgHello, From: "torn"}); err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitForAgents(2*time.Second, "torn"); err != nil {
		t.Fatal(err)
	}
	// A length prefix promising a frame that never arrives: the classic
	// torn write. The hub's read loop must treat it as conn death.
	if _, err := conn.Write([]byte{0x00, 0x00, 0x10, 0x00, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// The name must become reattachable by a fresh client.
	addr := hub.Addr()
	client, err := DialMux(func() string { return addr }, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ep, err := client.Endpoint("torn")
	if err != nil {
		t.Fatal(err)
	}
	// Until the hub has noticed the dead conn, a send to the name either
	// fails or is written into the dead conn and lost (one frame is one
	// write, so nothing is left to fail on); keep probing until one lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = hub.Send(protocol.Message{Type: protocol.MsgProbe, To: "torn"})
		select {
		case msg := <-ep.Inbox():
			if msg.Type != protocol.MsgProbe {
				t.Fatalf("got %+v", msg)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("name never reattached after torn conn died")
		}
	}
}

// TestMuxRedialReattachesAllStreams mirrors the reconnecting-TCP test:
// when the hub dies and a new one takes over the address, the client
// redials once and re-hellos every registered stream, including relay
// coverage.
func TestMuxRedialReattachesAllStreams(t *testing.T) {
	hub, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := hub.Addr()

	var mu sync.Mutex
	cur := addr
	client, err := DialMux(func() string { mu.Lock(); defer mu.Unlock(); return cur }, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	a, err := client.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := client.Endpoint("relay", "r1", "r2")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitForAgents(2*time.Second, "a", "relay", "r1", "r2"); err != nil {
		t.Fatal(err)
	}
	hub.Close()

	hub2, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	mu.Lock()
	cur = hub2.Addr()
	mu.Unlock()

	// The client must re-register every stream on the new hub by itself.
	if err := hub2.WaitForAgents(5*time.Second, "a", "relay", "r1", "r2"); err != nil {
		t.Fatalf("streams not re-registered after redial: %v", err)
	}

	// Traffic to a directly registered stream flows again.
	if err := hub2.Send(protocol.Message{Type: protocol.MsgProbe, To: "a"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-a.Inbox():
		if msg.Type != protocol.MsgProbe {
			t.Fatalf("got %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a never received after redial")
	}

	// Traffic to a covered name arrives at the relay endpoint, wrapped
	// whole for the relay to demultiplex.
	if err := hub2.Send(protocol.Message{Type: protocol.MsgReset, To: "r1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-relay.Inbox():
		inner := protocol.UnpackBatch(msg)
		if len(inner) != 1 || inner[0].To != "r1" || inner[0].Type != protocol.MsgReset {
			t.Fatalf("relay got %+v -> %+v", msg, inner)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("relay never received covered-name traffic after redial")
	}
}

// TestMuxUnregisteredFromDropped: a frame under a name its connection
// never registered (or declared coverage for) is never delivered — not
// under the forged name, and not re-attributed to the connection's own.
func TestMuxUnregisteredFromDropped(t *testing.T) {
	hub := tcpHub(t)
	tel := telemetry.NewRegistry()
	hub.SetTelemetry(tel)
	honest, err := DialReconnectingTCP("honest", NewAddrRing(hub.Addr()).Next, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	if err := hub.WaitForAgents(2*time.Second, "honest"); err != nil {
		t.Fatal(err)
	}
	// An endpoint's Send keeps a caller-set From (a relay forwards for its
	// subtree), so this frame reaches the hub under the forged name.
	if err := honest.Send(protocol.Message{Type: protocol.MsgResetDone, From: "victim", To: protocol.ManagerName}); err != nil {
		t.Fatal(err)
	}
	// The connection is not killed for it: an honest frame behind the
	// forged one still flows, and the hub reads a connection in order, so
	// once it has arrived the forged one has been judged.
	if err := honest.Send(protocol.Message{Type: protocol.MsgResetDone, To: protocol.ManagerName}); err != nil {
		t.Fatal(err)
	}
	if msg := recvHub(t, hub, 2*time.Second); msg.From != "honest" {
		t.Fatalf("hub delivered forged traffic: %+v", msg)
	}
	select {
	case msg := <-hub.Inbox():
		t.Fatalf("unexpected second delivery: %+v", msg)
	default:
	}
	if n := tel.Counter("transport.tcp.unattributed_drops").Value(); n != 1 {
		t.Fatalf("unattributed_drops = %d, want 1", n)
	}
}

// rawStream registers name on a connection of its own and returns the
// connection, for tests that look at frames rather than messages.
func rawStream(t *testing.T, hub *MuxManager, names ...string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	for _, n := range names {
		if err := protocol.WriteFrame(conn, protocol.Message{Type: protocol.MsgHello, From: n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.WaitForAgents(2*time.Second, names...); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestSendBatchEnvelopeRule: a MsgBatch envelope appears on the wire only
// where it saves a frame — two or more messages sharing a connection — so
// a flat deployment's wave is the same frames whether it leaves through
// Send or SendBatch.
func TestSendBatchEnvelopeRule(t *testing.T) {
	hub := tcpHub(t)
	shared := rawStream(t, hub, "s1", "s2")
	alone := rawStream(t, hub, "a")
	readFrame := func(conn net.Conn) protocol.Message {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		msg, err := protocol.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}

	if err := hub.SendBatch([]protocol.Message{
		{Type: protocol.MsgReset, To: "s1"},
		{Type: protocol.MsgReset, To: "a"},
		{Type: protocol.MsgReset, To: "s2"},
	}); err != nil {
		t.Fatal(err)
	}
	env := readFrame(shared)
	if inner := protocol.UnpackBatch(env); env.Type != protocol.MsgBatch || len(inner) != 2 || inner[0].To != "s1" || inner[1].To != "s2" {
		t.Fatalf("shared connection got %+v, want one envelope carrying s1 then s2", env)
	}
	if msg := readFrame(alone); msg.Type != protocol.MsgReset || msg.To != "a" || msg.From != protocol.ManagerName {
		t.Fatalf("lone message in a mixed wave got %+v, want the plain frame", msg)
	}

	// Distinct connections throughout: the flat path, plain frames only.
	if err := hub.SendBatch([]protocol.Message{
		{Type: protocol.MsgResume, To: "s2"},
		{Type: protocol.MsgResume, To: "a"},
	}); err != nil {
		t.Fatal(err)
	}
	for name, conn := range map[string]net.Conn{"s2": shared, "a": alone} {
		if msg := readFrame(conn); msg.Type != protocol.MsgResume || msg.To != name || msg.From != protocol.ManagerName {
			t.Fatalf("%s got %+v, want the plain frame", name, msg)
		}
	}
}

// TestEndpointRegisteredDuringReattach: an endpoint registered while the
// client is between writing its hellos and publishing the new connection
// is registered on that connection too, not left for the next redial.
func TestEndpointRegisteredDuringReattach(t *testing.T) {
	hub1 := tcpHub(t)
	hub2 := tcpHub(t)
	ring := NewAddrRing(hub1.Addr(), hub2.Addr())
	client, err := DialMux(ring.Next, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Endpoint("early"); err != nil {
		t.Fatal(err)
	}
	if err := hub1.WaitForAgents(2*time.Second, "early"); err != nil {
		t.Fatal(err)
	}

	var late *MuxEndpoint
	var once sync.Once
	client.mu.Lock()
	client.reattachHook = func() {
		once.Do(func() {
			// The hellos are written, the connection not yet published.
			var err error
			if late, err = client.Endpoint("late"); err != nil {
				t.Error(err)
			}
		})
	}
	client.mu.Unlock()
	_ = hub1.Close()

	if err := hub2.WaitForAgents(5*time.Second, "early", "late"); err != nil {
		t.Fatalf("after the redial: %v", err)
	}
	// WaitForAgents saw "late" registered, so the hook has run.
	if err := late.Send(protocol.Message{Type: protocol.MsgProbeAck, To: protocol.ManagerName}); err != nil {
		t.Fatal(err)
	}
	if msg := recvHub(t, hub2, 2*time.Second); msg.From != "late" {
		t.Fatalf("hub got %+v, want late's frame", msg)
	}
}

// TestOneStreamRedialFollowsAddrRing: an agent's endpoint whose manager
// dies finds the standby through the ring, under the same name and with
// the same inbox, and what it sent in between arrives behind its hello.
func TestOneStreamRedialFollowsAddrRing(t *testing.T) {
	leader := tcpHub(t)
	standby := tcpHub(t)
	tel := telemetry.NewRegistry()
	standby.SetTelemetry(tel)
	ep, err := DialReconnectingTCP("handheld", NewAddrRing(leader.Addr(), standby.Addr()).Next, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := leader.WaitForAgents(2*time.Second, "handheld"); err != nil {
		t.Fatal(err)
	}
	_ = leader.Close()

	// Sent at any point of the chase — into the dying connection (lost,
	// like any frame on a dead link), into the redial buffer, or on the
	// new connection — a frame that arrives arrives in order. Send until
	// the first one lands, then check what follows it.
	sent := 0
	deadline := time.Now().Add(5 * time.Second)
	var first protocol.Message
	for first.Type == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frame reached the standby")
		}
		// An error is a write that caught the dying connection: loss.
		_ = ep.Send(protocol.Message{Type: protocol.MsgProbeAck, To: protocol.ManagerName, Step: protocol.Step{PathIndex: sent}})
		sent++
		select {
		case first = <-standby.Inbox():
		case <-time.After(time.Millisecond):
		}
	}
	for want := first.Step.PathIndex + 1; want < sent; want++ {
		if msg := recvHub(t, standby, 2*time.Second); msg.From != "handheld" || msg.Step.PathIndex != want {
			t.Fatalf("got %+v, want handheld's frame %d", msg, want)
		}
	}
	if n := tel.Counter("transport.tcp.unattributed_drops").Value(); n != 0 {
		t.Fatalf("%d frames overtook the hello that readmits their stream", n)
	}

	if err := standby.Send(protocol.Message{Type: protocol.MsgProbe, To: "handheld"}); err != nil {
		t.Fatal(err)
	}
	if msg := recvOne(t, ep); msg.Type != protocol.MsgProbe {
		t.Fatalf("agent got %+v", msg)
	}
}

// TestMuxRedialBuffersFramesAcrossWindow: frames sent while the client
// is between connections are not lost — they are buffered and flushed
// after the client re-registers on the new hub, behind the hellos that
// readmit their streams. Before the fix, every send in the window
// errored, and a send racing the reattach could reach the hub ahead of
// its stream's hello and be dropped as unattributed.
func TestMuxRedialBuffersFramesAcrossWindow(t *testing.T) {
	hub, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := hub.Addr()

	var mu sync.Mutex
	cur := "" // parked: redials fail until a new hub address is published
	client, err := DialMux(func() string { mu.Lock(); defer mu.Unlock(); return cur }, 5*time.Millisecond)
	if err == nil {
		t.Fatal("expected first dial against parked address to fail")
	}
	mu.Lock()
	cur = addr
	mu.Unlock()
	client, err = DialMux(func() string { mu.Lock(); defer mu.Unlock(); return cur }, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	a, err := client.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitForAgents(2*time.Second, "a"); err != nil {
		t.Fatal(err)
	}

	// Kill the first hub and park the redial target so the disconnection
	// window stays open while we send.
	mu.Lock()
	cur = "127.0.0.1:1" // nothing listens there
	mu.Unlock()
	hub.Close()

	// Wait until the client has noticed the dead conn.
	deadlineAt := time.Now().Add(2 * time.Second)
	for {
		client.mu.Lock()
		down := client.conn == nil
		client.mu.Unlock()
		if down {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatal("client never noticed the dead connection")
		}
		time.Sleep(time.Millisecond)
	}

	// Sends in the window must be accepted (buffered), not errored.
	for i := 0; i < 3; i++ {
		if err := a.Send(protocol.Message{Type: protocol.MsgProbeAck, To: "manager", Step: protocol.Step{PathIndex: i}}); err != nil {
			t.Fatalf("send %d during redial window: %v", i, err)
		}
	}
	if err := a.SendBatch([]protocol.Message{
		{Type: protocol.MsgProbeAck, To: "manager", Step: protocol.Step{PathIndex: 3}},
		{Type: protocol.MsgProbeAck, To: "manager", Step: protocol.Step{PathIndex: 4}},
	}); err != nil {
		t.Fatalf("batch send during redial window: %v", err)
	}

	// Bring a new hub up and point the client at it.
	hub2, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	mu.Lock()
	cur = hub2.Addr()
	mu.Unlock()

	// Every buffered frame arrives on the new hub, in send order, after
	// the stream re-registered (no unattributed drops).
	for want := 0; want < 5; want++ {
		msg := recvHub(t, hub2, 5*time.Second)
		if msg.Type != protocol.MsgProbeAck || msg.From != "a" || msg.Step.PathIndex != want {
			t.Fatalf("frame %d: got %+v", want, msg)
		}
	}
	hub2.mu.Lock()
	_, registered := hub2.routes["a"]
	hub2.mu.Unlock()
	if !registered {
		t.Fatal("stream a not registered on the new hub")
	}
}

// TestMuxRedialBufferBounded: the redial buffer is finite; overflow
// behaves like loss (send errors), not unbounded memory growth.
func TestMuxRedialBufferBounded(t *testing.T) {
	hub, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := hub.Addr()
	var mu sync.Mutex
	cur := addr
	client, err := DialMux(func() string { mu.Lock(); defer mu.Unlock(); return cur }, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	a, err := client.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitForAgents(2*time.Second, "a"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	cur = "127.0.0.1:1"
	mu.Unlock()
	hub.Close()
	deadlineAt := time.Now().Add(2 * time.Second)
	for {
		client.mu.Lock()
		down := client.conn == nil
		client.mu.Unlock()
		if down {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatal("client never noticed the dead connection")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < maxMuxPending; i++ {
		if err := a.Send(protocol.Message{Type: protocol.MsgProbeAck, To: "manager"}); err != nil {
			t.Fatalf("send %d should have been buffered: %v", i, err)
		}
	}
	if err := a.Send(protocol.Message{Type: protocol.MsgProbeAck, To: "manager"}); err == nil {
		t.Fatal("send past the buffer bound should fail")
	}
}

// TestMuxJSONPeerRefused: a peer of the build that framed JSON sends its
// hello — under a name a current peer holds — and is refused by the first
// byte of the body: the hub drops the connection and touches no route, so
// the holder of the name keeps receiving. Mixed versions do not talk; they
// do not corrupt each other either.
func TestMuxJSONPeerRefused(t *testing.T) {
	hub := tcpHub(t)
	tel := telemetry.NewRegistry()
	hub.SetTelemetry(tel)
	current, err := DialReconnectingTCP("handheld", NewAddrRing(hub.Addr()).Next, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer current.Close()
	if err := hub.WaitForAgents(2*time.Second, "handheld"); err != nil {
		t.Fatal(err)
	}

	body := `{"type":10,"from":"handheld","to":"","step":{"pathIndex":0,"attempt":0,"actionID":"","ops":null,"participants":null,"fromVector":"","toVector":""},"trace":{}}`
	old := append([]byte{0, 0, 0, byte(len(body))}, body...)
	if _, err := protocol.ReadFrame(bytes.NewReader(old)); !errors.Is(err, protocol.ErrUnknownVersion) {
		t.Fatalf("a JSON hello decodes as %v, want the version error", err)
	}
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(old); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the hub kept a JSON peer's connection open (read %d bytes, %v)", n, err)
	}

	if err := hub.Send(protocol.Message{Type: protocol.MsgProbe, To: "handheld"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-current.Inbox():
		if msg.Type != protocol.MsgProbe {
			t.Fatalf("got %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the name's holder lost its route to a refused connection")
	}
}
