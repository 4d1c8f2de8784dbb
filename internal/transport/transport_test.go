package transport

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

func recvOne(t *testing.T, ep Endpoint) protocol.Message {
	t.Helper()
	select {
	case msg, ok := <-ep.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return msg
	case <-time.After(time.Second):
		t.Fatal("timed out receiving")
		return protocol.Message{}
	}
}

func TestBusDuplicateName(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	if _, err := bus.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Endpoint("a"); err == nil {
		t.Error("duplicate endpoint should fail")
	}
	if _, err := bus.Endpoint(""); err == nil {
		t.Error("empty name should fail")
	}
}

func TestDropSequence(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	a, _ := bus.Endpoint("a")
	b, _ := bus.Endpoint("b")
	bus.SetFault(DropSequence(2, MatchType(protocol.MsgResetDone)))

	// Send three reset-done messages; the second must vanish.
	for i := 0; i < 3; i++ {
		_ = a.Send(protocol.Message{Type: protocol.MsgResetDone, To: "b", Step: protocol.Step{PathIndex: i}})
	}
	first := recvOne(t, b)
	second := recvOne(t, b)
	if first.Step.PathIndex != 0 || second.Step.PathIndex != 2 {
		t.Errorf("got indices %d, %d; want 0, 2", first.Step.PathIndex, second.Step.PathIndex)
	}
}

func TestDropAllAndMatchers(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	a, _ := bus.Endpoint("a")
	b, _ := bus.Endpoint("b")
	c, _ := bus.Endpoint("c")
	bus.SetFault(DropAll(MatchTypeTo(protocol.MsgResume, "b")))

	_ = a.Send(protocol.Message{Type: protocol.MsgResume, To: "b"})
	_ = a.Send(protocol.Message{Type: protocol.MsgResume, To: "c"})
	if msg := recvOne(t, c); msg.Type != protocol.MsgResume {
		t.Errorf("c got %+v", msg)
	}
	select {
	case msg := <-b.Inbox():
		t.Errorf("b should receive nothing, got %+v", msg)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestDelayedDelivery(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	a, _ := bus.Endpoint("a")
	b, _ := bus.Endpoint("b")
	bus.SetFault(func(protocol.Message) (bool, time.Duration) { return false, 30 * time.Millisecond })

	start := time.Now()
	_ = a.Send(protocol.Message{Type: protocol.MsgReset, To: "b"})
	recvOne(t, b)
	if time.Since(start) < 25*time.Millisecond {
		t.Error("delay fault not applied")
	}
}

func TestEndpointClose(t *testing.T) {
	bus := NewBus()
	defer func() { _ = bus.Close() }()
	a, _ := bus.Endpoint("a")
	b, _ := bus.Endpoint("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.Inbox(); ok {
		t.Error("closed endpoint inbox should be closed")
	}
	if err := a.Send(protocol.Message{To: "b"}); err == nil {
		t.Error("send to closed endpoint should fail")
	}
	// Name can be reused after close.
	if _, err := bus.Endpoint("b"); err != nil {
		t.Errorf("reuse name after close: %v", err)
	}
}

// TestRearm: a re-armed timer carries no tick over from the deadline that
// fired before — the waiter that never drained it must not time out at once.
func TestRearm(t *testing.T) {
	timer := Rearm(nil, time.Millisecond)
	time.Sleep(20 * time.Millisecond) // fired; the tick sits in the channel
	if again := Rearm(timer, time.Hour); again != timer {
		t.Fatal("Rearm made a second timer")
	}
	select {
	case <-timer.C:
		t.Fatal("the earlier deadline's tick survived the re-arm")
	default:
	}
	timer.Stop()
	Rearm(timer, time.Millisecond)
	select {
	case <-timer.C:
	case <-time.After(2 * time.Second):
		t.Fatal("a re-armed timer never fired")
	}
}
