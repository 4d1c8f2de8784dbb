package adapters

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/cipherkit"
	"repro/internal/metasocket"
	"repro/internal/protocol"
)

func factory(t *testing.T) FilterFactory {
	t.Helper()
	c64 := cipherkit.MustDefault64()
	c128 := cipherkit.MustDefault128()
	return func(name string) (metasocket.Filter, error) {
		switch name {
		case "E1":
			return metasocket.NewEncoder("E1", c64), nil
		case "E2":
			return metasocket.NewEncoder("E2", c128), nil
		default:
			return metasocket.NewPassthrough(name), nil
		}
	}
}

func newSendProc(t *testing.T) (*SocketProcess, *metasocket.SendSocket) {
	t.Helper()
	sock, err := metasocket.NewSendSocket(func([]byte) error { return nil },
		metasocket.NewEncoder("E1", cipherkit.MustDefault64()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sock.Close)
	return NewSendProcess("server", sock, factory(t)), sock
}

func step(actionID string, ops []action.Op, phases [][]string) protocol.Step {
	return protocol.Step{
		PathIndex:    0,
		Attempt:      1,
		ActionID:     actionID,
		Ops:          ops,
		Participants: []string{"server"},
		ResetPhases:  phases,
	}
}

func TestReplaceLifecycle(t *testing.T) {
	sp, sock := newSendProc(t)
	ops := []action.Op{{Kind: action.Replace, Old: "E1", New: "E2"}}
	st := step("A1", ops, nil)

	if err := sp.PreAction(st, ops); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sp.Reset(ctx, st); err != nil {
		t.Fatal(err)
	}
	if !sock.Blocked() {
		t.Fatal("socket should be blocked after Reset")
	}
	if err := sp.InAction(st, ops); err != nil {
		t.Fatal(err)
	}
	if got := sock.Filters(); len(got) != 1 || got[0] != "E2" {
		t.Errorf("chain = %v, want [E2]", got)
	}
	if err := sp.Resume(st); err != nil {
		t.Fatal(err)
	}
	if sock.Blocked() {
		t.Error("socket should be unblocked after Resume")
	}
	if err := sp.PostAction(st, ops); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndRemove(t *testing.T) {
	sp, sock := newSendProc(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	ins := []action.Op{{Kind: action.Insert, New: "X"}}
	st := step("I", ins, nil)
	if err := sp.PreAction(st, ins); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reset(ctx, st); err != nil {
		t.Fatal(err)
	}
	if err := sp.InAction(st, ins); err != nil {
		t.Fatal(err)
	}
	if err := sp.Resume(st); err != nil {
		t.Fatal(err)
	}
	if got := sock.Filters(); len(got) != 2 || got[1] != "X" {
		t.Fatalf("chain = %v", got)
	}

	rem := []action.Op{{Kind: action.Remove, Old: "X"}}
	st2 := step("R", rem, nil)
	if err := sp.PreAction(st2, rem); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reset(ctx, st2); err != nil {
		t.Fatal(err)
	}
	if err := sp.InAction(st2, rem); err != nil {
		t.Fatal(err)
	}
	if err := sp.Resume(st2); err != nil {
		t.Fatal(err)
	}
	if got := sock.Filters(); len(got) != 1 {
		t.Fatalf("chain = %v", got)
	}
}

// TestRollbackAfterInAction: rolling back a replace restores the original
// filter and unblocks.
func TestRollbackAfterInAction(t *testing.T) {
	sp, sock := newSendProc(t)
	ops := []action.Op{{Kind: action.Replace, Old: "E1", New: "E2"}}
	st := step("A1", ops, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	if err := sp.PreAction(st, ops); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reset(ctx, st); err != nil {
		t.Fatal(err)
	}
	if err := sp.InAction(st, ops); err != nil {
		t.Fatal(err)
	}
	if err := sp.Rollback(st, ops, true); err != nil {
		t.Fatal(err)
	}
	if got := sock.Filters(); len(got) != 1 || got[0] != "E1" {
		t.Errorf("chain after rollback = %v, want [E1]", got)
	}
	if sock.Blocked() {
		t.Error("socket must resume after rollback")
	}
}

// TestRollbackBeforeInAction only unblocks (nothing to undo).
func TestRollbackBeforeInAction(t *testing.T) {
	sp, sock := newSendProc(t)
	ops := []action.Op{{Kind: action.Replace, Old: "E1", New: "E2"}}
	st := step("A1", ops, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sp.PreAction(st, ops); err != nil {
		t.Fatal(err)
	}
	if err := sp.Reset(ctx, st); err != nil {
		t.Fatal(err)
	}
	if err := sp.Rollback(st, ops, false); err != nil {
		t.Fatal(err)
	}
	if got := sock.Filters(); got[0] != "E1" {
		t.Errorf("chain = %v", got)
	}
	if sock.Blocked() {
		t.Error("socket must resume after rollback")
	}
}

func TestPreActionUnknownComponent(t *testing.T) {
	sp, _ := newSendProc(t)
	bad := FilterFactory(func(string) (metasocket.Filter, error) {
		return nil, context.DeadlineExceeded
	})
	sp.factory = bad
	ops := []action.Op{{Kind: action.Insert, New: "Z"}}
	if err := sp.PreAction(step("I", ops, nil), ops); err == nil {
		t.Error("factory failure must surface in PreAction")
	}
}

// owedLink is a metasocket.Link that owes what the test says it does.
type owedLink struct{ owed atomic.Uint64 }

func (l *owedLink) Owed() uint64     { return l.owed.Load() }
func (l *owedLink) OnRelease(func()) {}

// TestRecvNeedsDrainPolicy: the receive adapter drains only when it sits
// in a non-first reset phase.
func TestRecvNeedsDrainPolicy(t *testing.T) {
	var link owedLink
	sock, err := metasocket.NewRecvSocket(func(metasocket.Packet) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	sock.AttachLink(&link)
	sp := NewRecvProcess("handheld", sock, factory(t))

	singlePhase := step("A2", nil, [][]string{{"handheld"}})
	if sp.needsDrain(singlePhase) {
		t.Error("single-phase step must not drain")
	}
	firstPhase := step("A2", nil, [][]string{{"handheld"}, {"laptop"}})
	if sp.needsDrain(firstPhase) {
		t.Error("first-phase member must not drain")
	}
	secondPhase := step("A2", nil, [][]string{{"server"}, {"handheld"}})
	if !sp.needsDrain(secondPhase) {
		t.Error("second-phase member must drain")
	}

	// And the drain actually gates Reset: with pending datagrams and a
	// short deadline, Reset fails (fail-to-reset), leaving the socket
	// unblocked.
	link.owed.Store(3)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if err := sp.Reset(ctx, secondPhase); err == nil {
		t.Error("Reset should time out while the link has pending datagrams")
	}
	if sock.Blocked() {
		t.Error("failed Reset must not leave the socket blocked")
	}
}

// TestBystanderDrainsAndIsNotBlocked: a process the step has no operation
// for takes part in the handshake without being held: a sender is left
// streaming, a downstream receiver still drains (a relay's successors rely
// on it) and is not blocked either; resume and rollback accept a socket
// that was never blocked. The next step with an operation blocks as ever.
func TestBystanderDrainsAndIsNotBlocked(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()

	send, sendSock := newSendProc(t)
	clientsOnly := step("A16", nil, [][]string{{"server"}, {"laptop"}})
	if err := send.PreAction(clientsOnly, nil); err != nil {
		t.Fatal(err)
	}
	if err := send.Reset(ctx, clientsOnly); err != nil {
		t.Fatal(err)
	}
	if sendSock.Blocked() {
		t.Error("a bystander sender must keep streaming")
	}
	if err := send.Resume(clientsOnly); err != nil {
		t.Fatal(err)
	}
	ops := []action.Op{{Kind: action.Replace, Old: "E1", New: "E2"}}
	if err := send.PreAction(step("A1", ops, nil), ops); err != nil {
		t.Fatal(err)
	}
	if err := send.Reset(ctx, step("A1", ops, nil)); err != nil || !sendSock.Blocked() {
		t.Errorf("a step with an operation must block: err %v, blocked %v", err, sendSock.Blocked())
	}

	var link owedLink
	recvSock, err := metasocket.NewRecvSocket(func(metasocket.Packet) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	recvSock.AttachLink(&link)
	recv := NewRecvProcess("relay", recvSock, factory(t))
	downstream := step("A16", nil, [][]string{{"server"}, {"relay"}, {"laptop"}})
	if err := recv.PreAction(downstream, nil); err != nil {
		t.Fatal(err)
	}
	if err := recv.Reset(ctx, downstream); err != nil {
		t.Fatal(err)
	}
	if recvSock.Blocked() {
		t.Error("a bystander receiver must not be blocked")
	}
	if err := recv.Rollback(downstream, nil, false); err != nil {
		t.Fatal(err)
	}
	link.owed.Store(3) // nothing will ever process these
	if err := recv.Reset(ctx, downstream); err == nil {
		t.Error("a bystander downstream of a quiesced process must still drain: Reset should time out on an owing link")
	}
}

func TestSendSocketImplementsFilterHost(t *testing.T) {
	// Compile-time assertions live in the package; this exercises the
	// interface dynamically for both directions.
	var _ FilterHost = func() FilterHost {
		s, err := metasocket.NewSendSocket(func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}()
	var _ FilterHost = func() FilterHost {
		r, err := metasocket.NewRecvSocket(func(metasocket.Packet) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
}
