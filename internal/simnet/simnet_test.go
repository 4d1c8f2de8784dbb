package simnet

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// tree is a two-level router: manager → c1 → {c0a → {a, b}, c0b → {c}}.
type tree struct{}

var treeParent = map[string]string{
	"a": "c0a", "b": "c0a", "c": "c0b",
	"c0a": "c1", "c0b": "c1", "c1": protocol.ManagerName,
}

func (tree) Uplink(name string) (string, bool) {
	p, ok := treeParent[name]
	return p, ok
}

func (tree) NextHopDown(from, agent string) (string, bool) {
	hop, up := agent, treeParent[agent]
	for up != from {
		if up == "" {
			return "", false
		}
		hop, up = up, treeParent[up]
	}
	return hop, true
}

// recorder is a World that keeps every frame and vetoes by addressee.
type recorder struct {
	frames []Frame
	dead   map[string]bool
	seen   []string // "port:to" per Admit call
}

func (r *recorder) Admit(port string, msg protocol.Message) bool {
	r.seen = append(r.seen, port+":"+msg.To)
	return !r.dead[msg.To]
}
func (r *recorder) Submit(f Frame) { r.frames = append(r.frames, f) }
func (r *recorder) Recv(context.Context, time.Time) (protocol.Message, transport.RecvStatus) {
	return protocol.Message{Type: protocol.MsgProbeAck}, transport.RecvOK
}

func links(frames []Frame) []string {
	var out []string
	for _, f := range frames {
		out = append(out, fmt.Sprintf("%s>%s %s x%d down=%v", f.From, f.To, f.Msg.Type, f.Units, f.Down))
	}
	return out
}

func reset(to string) protocol.Message {
	return protocol.Message{Type: protocol.MsgReset, To: to, Step: protocol.Step{ActionID: "A1"}}
}

func TestFlatPortAddressesTheHop(t *testing.T) {
	w := &recorder{}
	n := New(w, nil)
	if err := n.Down(protocol.ManagerName).Send(reset("a")); err != nil {
		t.Fatal(err)
	}
	if err := n.Up("a").Send(protocol.Message{Type: protocol.MsgResetDone, To: protocol.ManagerName}); err != nil {
		t.Fatal(err)
	}
	want := []string{"manager>a reset x1 down=true", "a>manager reset done x1 down=false"}
	if got := links(w.frames); !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %q, want %q", got, want)
	}
	if w.frames[0].Msg.From != protocol.ManagerName || w.frames[1].Msg.From != "a" {
		t.Fatalf("ports did not stamp From: %q, %q", w.frames[0].Msg.From, w.frames[1].Msg.From)
	}
}

func TestRoutedPortsRideOneHop(t *testing.T) {
	w := &recorder{}
	n := New(w, tree{})
	// An agent's reply rides its uplink whatever its To says; a forwarded
	// message keeps the sender it already has.
	_ = n.Up("a").Send(protocol.Message{Type: protocol.MsgResetDone, To: protocol.ManagerName})
	_ = n.Up("c0a").Send(protocol.Message{Type: protocol.MsgResetFailed, From: "a", To: protocol.ManagerName})
	// A plain downward port relays a command as a frame of its own.
	_ = n.Down("c1").Send(reset("c"))
	want := []string{
		"a>c0a reset done x1 down=false",
		"c0a>c1 reset failed x1 down=false",
		"c1>c0b reset x1 down=true",
	}
	if got := links(w.frames); !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %q, want %q", got, want)
	}
	if got := w.frames[1].Msg.From; got != "a" {
		t.Fatalf("forwarded message re-attributed to %q", got)
	}
	if err := n.Down("c0a").Send(reset("c")); err == nil {
		t.Fatal("c0a relayed a command for an agent outside its subtree")
	}
}

func TestBatchPortOneEnvelopePerLink(t *testing.T) {
	w := &recorder{dead: map[string]bool{"b": true}}
	n := New(w, tree{})
	mid := BatchPort{Port: n.Down("c1")}
	if err := mid.SendBatch([]protocol.Message{reset("c"), reset("a"), reset("b")}); err != nil {
		t.Fatal(err)
	}
	// Links in first-seen order; the vetoed message is gone before packing.
	want := []string{"c1>c0b batch x1 down=true", "c1>c0a batch x1 down=true"}
	if got := links(w.frames); !reflect.DeepEqual(got, want) {
		t.Fatalf("frames = %q, want %q", got, want)
	}
	if got := w.seen; !reflect.DeepEqual(got, []string{"c1:c", "c1:a", "c1:b"}) {
		t.Fatalf("Admit saw %q, want every message once, in order", got)
	}
	if inner := protocol.UnpackBatch(w.frames[1].Msg); len(inner) != 1 || inner[0].To != "a" || inner[0].Step.ActionID != "A1" {
		t.Fatalf("envelope to c0a unpacks to %+v", inner)
	}

	// At a leaf the link ends at the addressee: no envelope, one frame each.
	w.frames, w.dead = nil, nil
	leaf := BatchPort{Port: n.Down("c0a")}
	if err := leaf.SendBatch([]protocol.Message{reset("a"), reset("b")}); err != nil {
		t.Fatal(err)
	}
	want = []string{"c0a>a reset x1 down=true", "c0a>b reset x1 down=true"}
	if got := links(w.frames); !reflect.DeepEqual(got, want) {
		t.Fatalf("leaf frames = %q, want %q", got, want)
	}

	// A single Send through a batch port is framed like a batch of one.
	w.frames = nil
	root := BatchPort{Port: n.Down(protocol.ManagerName)}
	if err := root.Send(protocol.Message{Type: protocol.MsgProbe, To: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := links(w.frames); !reflect.DeepEqual(got, []string{"manager>c1 batch x1 down=true"}) {
		t.Fatalf("single send framed as %q", got)
	}
	var _ transport.BatchSender = root
	var _ transport.SyncEndpoint = root
}

type sink struct{ got []string }

func (s *sink) Deliver(m protocol.Message)           { s.got = append(s.got, "agent:"+m.Type.String()) }
func (s *sink) DeliverFromParent(m protocol.Message) { s.got = append(s.got, "down:"+m.Type.String()) }
func (s *sink) DeliverFromChild(m protocol.Message)  { s.got = append(s.got, "up:"+m.Type.String()) }

func TestDeliverDispatchesByReceiverAndDirection(t *testing.T) {
	w := &recorder{}
	n := New(w, tree{})
	var s sink
	n.Attach("a", &s)
	n.AttachRelay("c0a", &s)
	n.Deliver(Frame{Msg: reset("a"), From: "c0a", To: "a", Down: true})
	n.Deliver(Frame{Msg: reset("a"), From: "c1", To: "c0a", Down: true})
	n.Deliver(Frame{Msg: protocol.Message{Type: protocol.MsgResetDone}, From: "a", To: "c0a"})
	n.Deliver(Frame{Msg: reset("x"), From: "c0a", To: "nobody", Down: true}) // lost
	if want := []string{"agent:reset", "down:reset", "up:reset done"}; !reflect.DeepEqual(s.got, want) {
		t.Fatalf("dispatched %q, want %q", s.got, want)
	}
	msg, ok := n.Deliver(Frame{Msg: protocol.Message{Type: protocol.MsgAdaptDone}, From: "c1", To: protocol.ManagerName})
	if !ok || msg.Type != protocol.MsgAdaptDone {
		t.Fatalf("manager-bound frame not handed back: %v %+v", ok, msg)
	}
	if got, st := n.Down(protocol.ManagerName).Recv(context.Background(), time.Time{}); st != transport.RecvOK || got.Type != protocol.MsgProbeAck {
		t.Fatalf("Recv did not run the world: %v %+v", st, got)
	}
}

func TestManualClockOnlyMovesForward(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewManualClock(start)
	c.Advance(3 * time.Second)
	c.AdvanceTo(start.Add(time.Second))
	if got := c.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("AdvanceTo moved the clock back: %v", got)
	}
	c.AdvanceTo(start.Add(5 * time.Second))
	if got := c.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", got)
	}
}
