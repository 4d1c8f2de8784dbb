package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// world is one transport under the conformance table: a manager endpoint
// and a way to attach named agent endpoints to it.
type world struct {
	mgr   Endpoint
	hub   *MuxManager // nil on the bus, which has no registration to wait for
	agent func(name string) Endpoint
	// closeUnregisters: closing an agent endpoint makes the manager's
	// sends to its name fail (a stream on a shared connection only
	// deregisters locally; the hub is not told).
	closeUnregisters bool
}

// attach registers the named agents and waits until the manager can
// reach all of them.
func (w *world) attach(t *testing.T, names ...string) []Endpoint {
	t.Helper()
	eps := make([]Endpoint, len(names))
	for i, n := range names {
		eps[i] = w.agent(n)
	}
	if w.hub != nil {
		if err := w.hub.WaitForAgents(2*time.Second, names...); err != nil {
			t.Fatal(err)
		}
	}
	return eps
}

func tcpHub(t *testing.T) *MuxManager {
	t.Helper()
	hub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	return hub
}

var worlds = []struct {
	name  string
	tcp   bool
	build func(t *testing.T) *world
}{
	{"bus", false, func(t *testing.T) *world {
		bus := NewBus()
		t.Cleanup(func() { _ = bus.Close() })
		mgr, err := bus.Endpoint(protocol.ManagerName)
		if err != nil {
			t.Fatal(err)
		}
		return &world{mgr: mgr, closeUnregisters: true, agent: func(name string) Endpoint {
			ep, err := bus.Endpoint(name)
			if err != nil {
				t.Fatal(err)
			}
			return ep
		}}
	}},
	{"tcp one stream per client", true, func(t *testing.T) *world {
		hub := tcpHub(t)
		return &world{mgr: hub, hub: hub, closeUnregisters: true, agent: func(name string) Endpoint {
			ep, err := DialReconnectingTCP(name, NewAddrRing(hub.Addr()).Next, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ep.Close() })
			return ep
		}}
	}},
	{"tcp one client with n streams", true, func(t *testing.T) *world {
		hub := tcpHub(t)
		client, err := DialMux(NewAddrRing(hub.Addr()).Next, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = client.Close() })
		return &world{mgr: hub, hub: hub, agent: func(name string) Endpoint {
			ep, err := client.Endpoint(name)
			if err != nil {
				t.Fatal(err)
			}
			return ep
		}}
	}},
}

// TestEndpointConformance holds every transport to the one Endpoint
// contract the manager and the agents are written against.
func TestEndpointConformance(t *testing.T) {
	for _, tc := range worlds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Run("round trip", func(t *testing.T) {
				w := tc.build(t)
				eps := w.attach(t, "a1", "a2")
				if err := w.mgr.Send(protocol.Message{Type: protocol.MsgReset, To: "a2", Step: protocol.Step{ActionID: "A2"}}); err != nil {
					t.Fatal(err)
				}
				if msg := recvOne(t, eps[1]); msg.Type != protocol.MsgReset || msg.Step.ActionID != "A2" || msg.From != protocol.ManagerName {
					t.Errorf("a2 got %+v", msg)
				}
				select {
				case msg := <-eps[0].Inbox():
					t.Errorf("a1 received a2's message: %+v", msg)
				default:
				}
				if err := eps[0].Send(protocol.Message{Type: protocol.MsgResetDone, To: protocol.ManagerName}); err != nil {
					t.Fatal(err)
				}
				if msg := recvOne(t, w.mgr); msg.Type != protocol.MsgResetDone || msg.From != "a1" {
					t.Errorf("manager got %+v", msg)
				}
			})

			t.Run("per-pair FIFO under concurrent senders", func(t *testing.T) {
				w := tc.build(t)
				names := []string{"s0", "s1", "s2"}
				eps := w.attach(t, names...)
				// 3×20 fits every inbox (the smallest holds 64): nothing
				// overflows, so every message must arrive, in order.
				const perPair = 20
				var wg sync.WaitGroup
				for _, ep := range eps {
					wg.Add(1)
					go func(ep Endpoint) {
						defer wg.Done()
						for i := 0; i < perPair; i++ {
							if err := ep.Send(protocol.Message{Type: protocol.MsgHeartbeat, To: protocol.ManagerName, Step: protocol.Step{PathIndex: i}}); err != nil {
								t.Errorf("%s send %d: %v", ep.Name(), i, err)
								return
							}
						}
					}(ep)
				}
				// The manager's own sends run concurrently with the agents'.
				for i := 0; i < perPair; i++ {
					for _, n := range names {
						if err := w.mgr.Send(protocol.Message{Type: protocol.MsgProbe, To: n, Step: protocol.Step{PathIndex: i}}); err != nil {
							t.Fatalf("manager send %d to %s: %v", i, n, err)
						}
					}
				}
				wg.Wait()
				next := map[string]int{}
				for n := 0; n < perPair*len(names); n++ {
					msg := recvOne(t, w.mgr)
					if msg.Step.PathIndex != next[msg.From] {
						t.Fatalf("%s→manager out of order: got %d, want %d", msg.From, msg.Step.PathIndex, next[msg.From])
					}
					next[msg.From]++
				}
				for _, ep := range eps {
					for i := 0; i < perPair; i++ {
						if msg := recvOne(t, ep); msg.Step.PathIndex != i {
							t.Fatalf("manager→%s out of order: got %d, want %d", ep.Name(), msg.Step.PathIndex, i)
						}
					}
				}
			})

			t.Run("send to an unknown name errors", func(t *testing.T) {
				w := tc.build(t)
				if err := w.mgr.Send(protocol.Message{Type: protocol.MsgReset, To: "ghost"}); err == nil {
					t.Error("send to a name nobody registered should fail")
				}
			})

			t.Run("close", func(t *testing.T) {
				w := tc.build(t)
				ep := w.attach(t, "a")[0]
				if err := ep.Close(); err != nil {
					t.Fatal(err)
				}
				if _, ok := <-ep.Inbox(); ok {
					t.Error("inbox of a closed endpoint should be closed")
				}
				if !w.closeUnregisters {
					return
				}
				// The hub forgets the name when it reads the closed
				// connection's end, not on a timer: probe until it has.
				deadline := time.Now().Add(2 * time.Second)
				for w.mgr.Send(protocol.Message{Type: protocol.MsgProbe, To: "a"}) == nil {
					if time.Now().After(deadline) {
						t.Fatal("manager still routes to a closed endpoint")
					}
					time.Sleep(time.Millisecond)
				}
			})

			if !tc.tcp {
				return
			}

			t.Run("WaitForAgents wakes on registration", func(t *testing.T) {
				w := tc.build(t)
				done := make(chan error, 1)
				go func() { done <- w.hub.WaitForAgents(5*time.Second, "late") }()
				w.agent("late")
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("WaitForAgents: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("waiter not woken by registration")
				}
			})

			t.Run("WaitForAgents wakes on close", func(t *testing.T) {
				w := tc.build(t)
				done := make(chan error, 1)
				go func() { done <- w.hub.WaitForAgents(5*time.Second, "never") }()
				_ = w.hub.Close()
				select {
				case err := <-done:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("WaitForAgents after close = %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("waiter not woken by close")
				}
			})

			t.Run("WaitForAgents times out", func(t *testing.T) {
				w := tc.build(t)
				if err := w.hub.WaitForAgents(50*time.Millisecond, "never"); err == nil || errors.Is(err, ErrClosed) {
					t.Errorf("waiting for a name that never registers = %v, want a timeout", err)
				}
			})
		})
	}
}
