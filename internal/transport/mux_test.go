package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
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

// TestMuxRoundTrip: many logical endpoints over one conn, both directions.
func TestMuxRoundTrip(t *testing.T) {
	hub, client := muxPair(t)
	a1, err := client.Endpoint("a1")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := client.Endpoint("a2")
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitForAgents(2*time.Second, "a1", "a2"); err != nil {
		t.Fatal(err)
	}

	// Down: hub routes by To across the shared conn.
	if err := hub.Send(protocol.Message{Type: protocol.MsgReset, To: "a2"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-a2.Inbox():
		if msg.Type != protocol.MsgReset {
			t.Fatalf("a2 got %v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a2 never received")
	}
	select {
	case msg := <-a1.Inbox():
		t.Fatalf("a1 stole a2's message: %+v", msg)
	default:
	}

	// Up: each endpoint speaks under its own From.
	if err := a1.Send(protocol.Message{Type: protocol.MsgResetDone, To: "manager"}); err != nil {
		t.Fatal(err)
	}
	if got := recvHub(t, hub, 2*time.Second); got.From != "a1" {
		t.Fatalf("From = %q, want a1", got.From)
	}
}

// TestMuxPerStreamOrderingUnderConcurrentSends: two endpoints send
// concurrently over the shared conn; each stream's own sequence must
// arrive in order (the write lock serializes whole frames, never
// interleaving bytes).
func TestMuxPerStreamOrderingUnderConcurrentSends(t *testing.T) {
	hub, client := muxPair(t)
	// 3×80 = 240 messages fit the hub's 256-slot inbox: no overflow, so
	// every message must arrive, each stream's in its exact send order.
	const perStream = 80
	streams := []string{"s0", "s1", "s2"}
	eps := make([]*MuxEndpoint, len(streams))
	for i, name := range streams {
		ep, err := client.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	if err := hub.WaitForAgents(2*time.Second, streams...); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep *MuxEndpoint) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				if err := ep.Send(protocol.Message{
					Type:  protocol.MsgHeartbeat,
					To:    "manager",
					Error: fmt.Sprintf("%d", i), // sequence tag
				}); err != nil {
					t.Errorf("%s send %d: %v", ep.Name(), i, err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()

	next := map[string]int{}
	for n := 0; n < perStream*len(streams); n++ {
		msg := recvHub(t, hub, 5*time.Second)
		want := fmt.Sprintf("%d", next[msg.From])
		if msg.Error != want {
			t.Fatalf("stream %s out of order: got seq %s, want %s", msg.From, msg.Error, want)
		}
		next[msg.From]++
	}
	for _, name := range streams {
		if next[name] != perStream {
			t.Fatalf("stream %s delivered %d of %d", name, next[name], perStream)
		}
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

// TestMuxUnregisteredFromDropped: a conn may only speak for streams it
// registered or declared coverage for; anything else is dropped, not
// misattributed.
func TestMuxUnregisteredFromDropped(t *testing.T) {
	hub, err := ListenMux("manager", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := protocol.WriteFrame(conn, protocol.Message{Type: protocol.MsgHello, From: "honest"}); err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitForAgents(2*time.Second, "honest"); err != nil {
		t.Fatal(err)
	}
	// Forge a frame under a name this conn never registered.
	if err := protocol.WriteFrame(conn, protocol.Message{Type: protocol.MsgResetDone, From: "victim", To: "manager"}); err != nil {
		t.Fatal(err)
	}
	// An honest frame after the forged one still flows (the conn is not
	// killed, the forged frame is just dropped).
	if err := protocol.WriteFrame(conn, protocol.Message{Type: protocol.MsgResetDone, From: "honest", To: "manager"}); err != nil {
		t.Fatal(err)
	}
	msg := recvHub(t, hub, 2*time.Second)
	if msg.From != "honest" {
		t.Fatalf("hub delivered forged traffic: %+v", msg)
	}
	select {
	case msg := <-hub.Inbox():
		t.Fatalf("unexpected second delivery: %+v", msg)
	case <-time.After(50 * time.Millisecond):
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
