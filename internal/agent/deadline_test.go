package agent_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/protocol"
)

// TestResetContextContract pins what LocalProcess.Reset may rely on in the
// context it is handed, whatever implements it: a deadline no later than
// ResetTimeout after the reset began; expiry reported as
// context.DeadlineExceeded, answered with "reset failed" and a rollback;
// context.AfterFunc and derived contexts that follow the context; and a
// context kept past Reset's return that reads Canceled with Done closed.
func TestResetContextContract(t *testing.T) {
	const timeout = 200 * time.Millisecond // newHarness's ResetTimeout
	wait := func(what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}

	expire := true
	var kept, keptChild context.Context
	var cancelKeptChild context.CancelFunc
	keptFired := make(chan struct{})
	proc := &fakeProc{}
	proc.resetHook = func(ctx context.Context) error {
		start := time.Now()
		if deadline, ok := ctx.Deadline(); !ok || deadline.Sub(start) > timeout {
			t.Errorf("Deadline() = %v, %v; want one at most %v after the reset began (%v)", deadline, ok, timeout, start)
		}
		if !expire {
			kept = ctx
			keptChild, cancelKeptChild = context.WithCancel(ctx)
			context.AfterFunc(ctx, func() { close(keptFired) })
			return nil
		}
		fired := make(chan struct{})
		context.AfterFunc(ctx, func() { close(fired) })
		stop := context.AfterFunc(ctx, func() { panic("an AfterFunc stopped before expiry ran") })
		if !stop() {
			t.Error("stop() before expiry returned false")
		}
		child, cancel := context.WithCancel(ctx)
		defer cancel()

		wait("expiry", ctx.Done())
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Errorf("expired context's Err() = %v, want DeadlineExceeded", ctx.Err())
		}
		if time.Since(start) < timeout/2 {
			t.Errorf("the context expired %v after the reset began, want about %v", time.Since(start), timeout)
		}
		wait("the derived context's cancellation", child.Done())
		if !errors.Is(child.Err(), context.DeadlineExceeded) {
			t.Errorf("derived context's Err() = %v, want DeadlineExceeded", child.Err())
		}
		wait("the AfterFunc at expiry", fired)
		return fmt.Errorf("never reached a safe state: %w", ctx.Err())
	}
	h := newHarness(t, proc)

	step := multiStep()
	h.send(t, protocol.MsgReset, step)
	if msg := h.expect(t, protocol.MsgResetFailed); msg.Error == "" {
		t.Error("reset failed carries no error text")
	}
	if s := h.agent.State(); s != agent.StateRunning {
		t.Errorf("state after fail to reset = %v, want running", s)
	}
	if n := proc.rolledBackCount(); n != 1 {
		t.Errorf("rollbacks after fail to reset = %d, want 1", n)
	}

	// A context kept past Reset's return: the reset done is sent after Reset
	// returned, so by then the context has ended.
	expire = false
	step.Attempt++
	h.send(t, protocol.MsgReset, step)
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptDone)
	defer cancelKeptChild()
	for name, ctx := range map[string]context.Context{"kept": kept, "derived from the kept one": keptChild} {
		select {
		case <-ctx.Done():
		default:
			t.Errorf("the %s context's Done is open after Reset returned", name)
		}
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Errorf("the %s context's Err() = %v after Reset returned, want Canceled", name, ctx.Err())
		}
	}
	wait("the AfterFunc left registered past Reset's return", keptFired)
}
