package adapters

import (
	"context"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/metasocket"
	"repro/internal/protocol"
)

// relayRig is a two-socket process: a receive socket (upstream side) and
// a send socket (downstream side), each with one adaptive component.
type relayRig struct {
	recv *metasocket.RecvSocket
	send *metasocket.SendSocket
	cp   *CompositeProcess
}

func newRelayRig(t *testing.T) *relayRig {
	t.Helper()
	recv, err := metasocket.NewRecvSocket(func(metasocket.Packet) error { return nil },
		metasocket.NewPassthrough("R1"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := metasocket.NewSendSocket(func([]byte) error { return nil },
		metasocket.NewPassthrough("T1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(send.Close)

	factory := func(name string) (metasocket.Filter, error) {
		return metasocket.NewPassthrough(name), nil
	}
	cp, err := NewCompositeProcess(
		Part{Proc: NewRecvProcess("relay", recv, factory), Components: []string{"R1", "R2"}},
		Part{Proc: NewSendProcess("relay", send, factory), Components: []string{"T1", "T2"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &relayRig{recv: recv, send: send, cp: cp}
}

func compoundStep() (protocol.Step, []action.Op) {
	ops := []action.Op{
		{Kind: action.Replace, Old: "R1", New: "R2"},
		{Kind: action.Replace, Old: "T1", New: "T2"},
	}
	return protocol.Step{
		PathIndex: 0, Attempt: 1, ActionID: "UP",
		Ops:          ops,
		Participants: []string{"relay"},
	}, ops
}

// TestCompositeLifecycle drives a compound replace across both sockets:
// every hook routes each op to the socket owning its component.
func TestCompositeLifecycle(t *testing.T) {
	rig := newRelayRig(t)
	step, ops := compoundStep()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	if err := rig.cp.PreAction(step, ops); err != nil {
		t.Fatal(err)
	}
	if err := rig.cp.Reset(ctx, step); err != nil {
		t.Fatal(err)
	}
	if !rig.recv.Blocked() || !rig.send.Blocked() {
		t.Fatal("both sockets must be blocked after Reset")
	}
	if err := rig.cp.InAction(step, ops); err != nil {
		t.Fatal(err)
	}
	if got := rig.recv.Filters(); len(got) != 1 || got[0] != "R2" {
		t.Errorf("recv chain = %v", got)
	}
	if got := rig.send.Filters(); len(got) != 1 || got[0] != "T2" {
		t.Errorf("send chain = %v", got)
	}
	if err := rig.cp.Resume(step); err != nil {
		t.Fatal(err)
	}
	if rig.recv.Blocked() || rig.send.Blocked() {
		t.Error("both sockets must resume")
	}
	if err := rig.cp.PostAction(step, ops); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeBystander: the process is the bystander, not the socket — a
// step with no operation here blocks neither socket, one that changes the
// send side alone still blocks both, upstream first.
func TestCompositeBystander(t *testing.T) {
	rig := newRelayRig(t)
	step, _ := compoundStep()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	if err := rig.cp.PreAction(step, nil); err != nil {
		t.Fatal(err)
	}
	if err := rig.cp.Reset(ctx, step); err != nil {
		t.Fatal(err)
	}
	if rig.recv.Blocked() || rig.send.Blocked() {
		t.Fatal("a bystander process must block neither socket")
	}
	if err := rig.cp.Resume(step); err != nil {
		t.Fatal(err)
	}

	sendOnly := []action.Op{{Kind: action.Replace, Old: "T1", New: "T2"}}
	if err := rig.cp.PreAction(step, sendOnly); err != nil {
		t.Fatal(err)
	}
	if err := rig.cp.Reset(ctx, step); err != nil {
		t.Fatal(err)
	}
	if !rig.recv.Blocked() || !rig.send.Blocked() {
		t.Fatal("a step that changes one socket must block both")
	}
	if err := rig.cp.Rollback(step, sendOnly, false); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeRollback restores both chains and releases both sockets.
func TestCompositeRollback(t *testing.T) {
	rig := newRelayRig(t)
	step, ops := compoundStep()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	if err := rig.cp.PreAction(step, ops); err != nil {
		t.Fatal(err)
	}
	if err := rig.cp.Reset(ctx, step); err != nil {
		t.Fatal(err)
	}
	if err := rig.cp.InAction(step, ops); err != nil {
		t.Fatal(err)
	}
	if err := rig.cp.Rollback(step, ops, true); err != nil {
		t.Fatal(err)
	}
	if got := rig.recv.Filters(); got[0] != "R1" {
		t.Errorf("recv chain after rollback = %v", got)
	}
	if got := rig.send.Filters(); got[0] != "T1" {
		t.Errorf("send chain after rollback = %v", got)
	}
	if rig.recv.Blocked() || rig.send.Blocked() {
		t.Error("rollback must release both sockets")
	}
}

// TestCompositeResetFailureReleasesEarlierParts: when a later part fails
// to reach its safe state, parts already blocked must be released.
func TestCompositeResetFailureReleasesEarlierParts(t *testing.T) {
	rig := newRelayRig(t)
	// Make the send socket unable to block by keeping it busy: occupy
	// its processing section with a parked packet.
	release := make(chan struct{})
	parked := &parkedFilter{release: release, started: make(chan struct{})}
	rig.send.UnsafeReplaceFilter("T1", parked)
	go func() { _ = rig.send.Send(metasocket.Packet{Payload: []byte("x")}) }()
	<-parked.started

	step, _ := compoundStep()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := rig.cp.Reset(ctx, step); err == nil {
		t.Fatal("Reset should fail while the send socket is stuck mid-packet")
	}
	if rig.recv.Blocked() {
		t.Error("recv socket must be released after the partial reset failed")
	}
	close(release)
}

type parkedFilter struct {
	started chan struct{}
	release chan struct{}
	once    bool
}

func (p *parkedFilter) Name() string { return "T1" }

func (p *parkedFilter) Process(dst []metasocket.Packet, pkt metasocket.Packet) ([]metasocket.Packet, error) {
	if !p.once {
		p.once = true
		close(p.started)
	}
	<-p.release
	return append(dst, pkt), nil
}

func TestCompositeValidation(t *testing.T) {
	if _, err := NewCompositeProcess(); err == nil {
		t.Error("no parts should fail")
	}
	if _, err := NewCompositeProcess(Part{Proc: nil}); err == nil {
		t.Error("nil proc should fail")
	}
	recv, err := metasocket.NewRecvSocket(func(metasocket.Packet) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	factory := func(name string) (metasocket.Filter, error) {
		return metasocket.NewPassthrough(name), nil
	}
	p := NewRecvProcess("x", recv, factory)
	if _, err := NewCompositeProcess(
		Part{Proc: p, Components: []string{"A"}},
		Part{Proc: p, Components: []string{"A"}},
	); err == nil {
		t.Error("duplicate component ownership should fail")
	}
}

// TestCompositeRejectsForeignComponent: an op for a component no part
// hosts must error out.
func TestCompositeRejectsForeignComponent(t *testing.T) {
	rig := newRelayRig(t)
	ops := []action.Op{{Kind: action.Insert, New: "Z9"}}
	step := protocol.Step{ActionID: "X", Ops: ops, Participants: []string{"relay"}}
	if err := rig.cp.PreAction(step, ops); err == nil {
		t.Error("foreign component must be rejected")
	}
}
